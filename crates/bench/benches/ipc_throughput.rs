//! **B5 (Sect. 2.1)** — interpartition communication cost: local
//! memory-to-memory delivery vs the remote link path (encode → link →
//! decode → deliver), for sampling and queuing ports across message sizes.

use bench::criterion::{BenchmarkId, Criterion, Throughput};
use bench::experiment_header;
use bench::{criterion_group, criterion_main};
use std::hint::black_box;

use air_hw::link::{InterNodeLink, LinkEndpoint};
use air_model::{PartitionId, Ticks};
use air_ports::wire::Frame;
use air_ports::{
    ChannelConfig, Destination, PortAddr, PortRegistry, QueuingPortConfig, SamplingPortConfig,
};

const SIZES: [usize; 5] = [16, 64, 256, 1024, 4096];

fn local_sampling_registry(size: usize) -> PortRegistry {
    let mut reg = PortRegistry::new();
    reg.create_sampling_port(PartitionId(0), SamplingPortConfig::source("out", size))
        .unwrap();
    reg.create_sampling_port(
        PartitionId(1),
        SamplingPortConfig::destination("in", size, Ticks::MAX),
    )
    .unwrap();
    reg.add_channel(ChannelConfig {
        id: 1,
        source: PortAddr::new(PartitionId(0), "out"),
        destinations: vec![Destination::Local(PortAddr::new(PartitionId(1), "in"))],
    })
    .unwrap();
    reg
}

fn local_queuing_registry(size: usize) -> PortRegistry {
    let mut reg = PortRegistry::new();
    reg.create_queuing_port(PartitionId(0), QueuingPortConfig::source("out", size, 16))
        .unwrap();
    reg.create_queuing_port(
        PartitionId(1),
        QueuingPortConfig::destination("in", size, 16),
    )
    .unwrap();
    reg.add_channel(ChannelConfig {
        id: 1,
        source: PortAddr::new(PartitionId(0), "out"),
        destinations: vec![Destination::Local(PortAddr::new(PartitionId(1), "in"))],
    })
    .unwrap();
    reg
}

fn bench_local(c: &mut Criterion) {
    experiment_header(
        "B5 (Sect. 2.1)",
        "interpartition message cost: local copy vs remote link frames",
    );
    let mut group = c.benchmark_group("local_sampling_write_route_read");
    for size in SIZES {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let mut reg = local_sampling_registry(size);
            let payload = vec![0xabu8; size];
            let mut t = 0u64;
            b.iter(|| {
                t += 1;
                reg.sampling_port_mut(PartitionId(0), "out")
                    .unwrap()
                    .write(payload.clone(), Ticks(t))
                    .unwrap();
                reg.route(Ticks(t));
                black_box(
                    reg.sampling_port_mut(PartitionId(1), "in")
                        .unwrap()
                        .read(Ticks(t))
                        .unwrap(),
                );
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("local_queuing_send_route_receive");
    for size in SIZES {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let mut reg = local_queuing_registry(size);
            let payload = vec![0xabu8; size];
            let mut t = 0u64;
            b.iter(|| {
                t += 1;
                reg.queuing_port_mut(PartitionId(0), "out")
                    .unwrap()
                    .send(payload.clone(), Ticks(t))
                    .unwrap();
                reg.route(Ticks(t));
                black_box(
                    reg.queuing_port_mut(PartitionId(1), "in")
                        .unwrap()
                        .receive()
                        .unwrap(),
                );
            })
        });
    }
    group.finish();
}

fn bench_remote(c: &mut Criterion) {
    let mut group = c.benchmark_group("remote_frame_encode_link_decode");
    for size in SIZES {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let payload = vec![0xcdu8; size];
            let mut link = InterNodeLink::new(0);
            let mut t = 0u64;
            b.iter(|| {
                t += 1;
                let frame = Frame::new(7, Ticks(t), payload.clone());
                link.send(LinkEndpoint::A, t, frame.encode());
                let bytes = link.receive(LinkEndpoint::B, t).unwrap();
                black_box(Frame::decode(&bytes).unwrap());
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    // Bounded timing budget: the shapes matter, not the fifth
    // significant digit; keeps `cargo bench --workspace` quick.
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1500))
        .sample_size(30);
    targets = bench_local, bench_remote
}
criterion_main!(benches);

//! The diagnostic model: stable codes, severities, and the lint report
//! with its human and line-oriented JSON renderers.

use std::fmt;

/// How serious a diagnostic is.
///
/// `Error`-level findings describe configurations the paper's model rules
/// out (or that the runtime would refuse); a report containing any makes
/// [`LintReport::has_errors`] true and the `airlint` binary exit non-zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The configuration is invalid; the system must not be built from it.
    Error,
    /// The configuration is suspicious or wasteful but representable.
    Warning,
    /// Noteworthy but harmless.
    Info,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        })
    }
}

macro_rules! codes {
    ($($variant:ident = ($code:literal, $severity:ident, $title:literal, $example:literal),)*) => {
        /// Stable diagnostic codes (`AIRnnn`).
        ///
        /// Codes are append-only: a published code never changes meaning
        /// or disappears. The registry (code → analysis → paper section)
        /// is tabulated in `DESIGN.md`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[allow(missing_docs)] // each variant is documented by its title
        pub enum Code {
            $($variant,)*
        }

        impl Code {
            /// The stable `AIRnnn` string.
            pub fn as_str(self) -> &'static str {
                match self { $(Code::$variant => $code,)* }
            }

            /// The fixed severity of this code.
            pub fn severity(self) -> Severity {
                match self { $(Code::$variant => Severity::$severity,)* }
            }

            /// A short title of what the code flags.
            pub fn title(self) -> &'static str {
                match self { $(Code::$variant => $title,)* }
            }

            /// A concrete example of a configuration that triggers the
            /// code (rendered by `airlint --explain`).
            pub fn example(self) -> &'static str {
                match self { $(Code::$variant => $example,)* }
            }

            /// Resolves an `AIRnnn` string back to its code.
            pub fn parse(text: &str) -> Option<Code> {
                match text { $($code => Some(Code::$variant),)* _ => None }
            }

            /// Every defined code, for registry rendering and tests.
            pub const ALL: &'static [Code] = &[$(Code::$variant,)*];
        }
    };
}

codes! {
    // Parsing.
    ParseError = ("AIR000", Error, "configuration text failed to parse",
        "`window P0 offset=x duration=5` — 'x' is not a number"),
    // Temporal: schedule-table structure (Eq. 20–23) and schedulability.
    ZeroMtf = ("AIR001", Error, "major time frame is zero",
        "`schedule chi0 name=ops mtf=0`"),
    ZeroWindowDuration = ("AIR002", Error, "window has zero duration",
        "`window P0 offset=50 duration=0` grants no time"),
    WindowsOverlap = ("AIR003", Error, "windows overlap (Eq. 21)",
        "`window P0 offset=0 duration=60` followed by `window P1 offset=50 duration=20`"),
    WindowBeyondMtf = ("AIR004", Error, "window runs past the MTF (Eq. 21)",
        "`window P0 offset=80 duration=40` under `mtf=100`"),
    WindowForUnknownPartition = ("AIR005", Error, "window names a partition without a requirement (Eq. 20)",
        "`window P1 …` in a schedule with no `require P1 …` line"),
    RequirementForUnknownPartition = ("AIR006", Error, "requirement names an undeclared partition",
        "`require P9 cycle=100 duration=20` with no `partition P9` declaration"),
    PartitionWithoutWindows = ("AIR007", Error, "partition requires time but has no window (Eq. 23)",
        "`require P1 cycle=100 duration=20` but no `window P1 …` in the schedule"),
    ZeroCycle = ("AIR008", Error, "partition cycle is zero",
        "`require P0 cycle=0 duration=10`"),
    CycleDoesNotDivideMtf = ("AIR009", Error, "cycle does not divide the MTF (Eq. 22)",
        "`require P0 cycle=30 …` under `mtf=100`"),
    MtfNotMultipleOfLcm = ("AIR010", Error, "MTF is not a multiple of the cycles' lcm (Eq. 22)",
        "cycles 40 and 60 (lcm 120) under `mtf=200`"),
    InsufficientDurationInCycle = ("AIR011", Error, "cycle receives less than the required duration (Eq. 23)",
        "`require P0 cycle=50 duration=20` but windows give cycle 2 only 10 ticks"),
    ProcessUnschedulable = ("AIR012", Warning, "process may miss its deadline under the supply bound",
        "`process P0 … deadline=50 wcet=40` inside a 40-tick window per 100-tick MTF"),
    ProcessAnalysisInconclusive = ("AIR013", Warning, "process cannot be analysed (missing WCET or unbounded releases)",
        "`process P0 name=task period=100 deadline=100` with no `wcet=`"),
    OtherModelViolation = ("AIR014", Error, "model verification violation",
        "a campaign-only invariant violation surfaced through the lint report"),
    ZeroPeriod = ("AIR015", Error, "process has a zero period or minimum inter-arrival time",
        "`process P0 name=task period=0` has no next release point"),
    // Mode graph: multiple-schedule (mode-based) configuration.
    ActionForUnknownPartition = ("AIR020", Error, "schedule-change action names an undeclared partition",
        "`action P9 warm_restart` with no `partition P9` declaration"),
    NoScheduleAuthority = ("AIR021", Warning, "several schedules but no partition may request a switch",
        "two `schedule` sections and no `partition … authority=true`"),
    UnreachableSchedule = ("AIR022", Warning, "schedule is unreachable from the initial schedule",
        "chi2 exists but every authority-holding schedule can only reach chi1"),
    ScheduleTrap = ("AIR023", Info, "schedule gives no window to any authority partition (no way out)",
        "chi1 windows only P1 while `authority=true` is on P0"),
    PartitionNeverScheduled = ("AIR024", Warning, "partition has no window in any schedule",
        "`partition P2 …` declared but never named in a `window` line"),
    // Ports and channels.
    DanglingPort = ("AIR030", Warning, "port is not connected to any channel",
        "`sampling P0 name=out dir=source size=8` with no `channel … from=P0:out`"),
    UnknownSourcePort = ("AIR031", Error, "channel source port does not exist",
        "`channel 0 from=P0:ghost to=…` — P0 declares no port 'ghost'"),
    UnknownDestinationPort = ("AIR032", Error, "channel destination port does not exist",
        "`channel 0 … to=P1:ghost` — P1 declares no port 'ghost'"),
    DirectionMismatch = ("AIR033", Error, "port direction does not match its channel role",
        "`channel 0 from=P0:in …` where 'in' is `dir=destination`"),
    KindMismatch = ("AIR034", Error, "sampling/queuing kinds differ across the channel",
        "a `sampling` source wired to a `queuing` destination"),
    MessageSizeMismatch = ("AIR035", Error, "destination accepts smaller messages than the source emits",
        "`size=64` source into a `size=32` destination"),
    ZeroQueueDepth = ("AIR036", Error, "queuing port has queue depth zero",
        "`queuing P0 name=tc dir=source size=32 depth=0`"),
    DuplicateChannelEndpoint = ("AIR037", Error, "duplicate channel id or destination endpoint",
        "two `channel 0 …` lines, or the same `P1:in` fed by two channels"),
    QueuingFanOut = ("AIR038", Error, "queuing channel has more than one destination",
        "`channel 0 from=P0:tc to=P1:a,P2:b` on queuing ports"),
    ChannelSelfLoop = ("AIR039", Error, "channel loops back into its source partition",
        "`channel 0 from=P0:out to=P0:in`"),
    DuplicatePortName = ("AIR040", Error, "two ports of one partition share a name",
        "`sampling P0 name=io …` and `queuing P0 name=io …`"),
    EmptyChannel = ("AIR041", Error, "channel has no destination",
        "`channel 0 from=P0:out to=`"),
    // Spatial partitioning.
    MemoryOverlap = ("AIR050", Error, "memory regions of different partitions overlap",
        "P0 at `base=0x40000000 size=0x2000` and P1 at `base=0x40001000 …`, neither shared"),
    SharedPermissionConflict = ("AIR051", Error, "write permission on a region another partition shares read-only",
        "`memory P0 base=0x40200000 … perm=rw shared=true` against P1's `perm=ro` view"),
    MisalignedRegion = ("AIR052", Warning, "memory region is not page-aligned",
        "`memory P0 base=0x40000010 …` (4 KiB pages)"),
    ZeroSizeRegion = ("AIR053", Warning, "memory region has zero size",
        "`memory P0 base=0x40000000 size=0 perm=rw`"),
    // Health monitoring.
    HmUnhandledError = ("AIR060", Warning, "error id has no action at any level",
        "`hm deadline_missed level=process` with no handler and no fallback"),
    UnreachableLogThreshold = ("AIR061", Warning, "log-then-act threshold of zero never logs",
        "`handler P0 deadline_missed log_then_act=0/restart_process`"),
    // System structure.
    DuplicatePartitionId = ("AIR070", Error, "duplicate partition id",
        "two partitions registered under id P0 (programmatic builders only; the parser rejects this earlier)"),
    DuplicateScheduleId = ("AIR071", Error, "duplicate schedule id",
        "two schedules registered under id chi0 (programmatic builders only; the parser rejects this earlier)"),
    NoSchedules = ("AIR072", Error, "no scheduling table declared",
        "a config with `partition P0 …` but no `schedule` section"),
    NonContiguousPartitionIds = ("AIR073", Error, "partition ids are not contiguous from zero in declaration order",
        "`partition P0 …` followed by `partition P2 …` (no P1)"),
    DuplicateProcessName = ("AIR074", Error, "two processes of one partition share a name",
        "two `process P0 name=ctl …` lines"),
    UnknownPartitionReference = ("AIR075", Error, "declaration references an undeclared partition",
        "`process P5 …` with no `partition P5` declaration"),
    // Cluster and reliable transport.
    ArqExceedsMtf = ("AIR076", Error, "ARQ parameters cannot serve the major time frame",
        "`arq window=2 timeout=600 …` under `mtf=200` — one retransmit overruns the frame"),
    IdenticalRedundantLinks = ("AIR077", Warning, "redundant link adapters are configured identically (common-mode exposure)",
        "`link primary_latency=3 secondary_latency=3 …`"),
    UnsequencedRemoteSender = ("AIR078", Warning, "channel sends to the remote node without reliable transport",
        "`channel 50 … to=remote:P0:tm` with no `arq` directive"),
    UnknownDegradedSchedule = ("AIR079", Error, "link degraded schedule is not declared",
        "`link … degraded=chi9` with no `schedule chi9` section"),
    UnmatchedRemoteChannel = ("AIR080", Error, "remote channel has no counterpart on the peer node",
        "node A sends `channel 50 … to=remote:P0:tm` but node B has no channel 50"),
    // Mode/HM state-space exploration (`airlint --explore`).
    ModeStarvation = ("AIR081", Error, "reachable state starves a running partition with no command path back",
        "switching to a schedule that drops P1's window, with no authority able to switch away"),
    AuthorityLostAcrossModes = ("AIR082", Warning, "reachable state leaves no running authority with a window",
        "an authority partition switches into a schedule that gives it no window"),
    StoppedPartitionUnrecoverable = ("AIR083", Warning, "a stopped partition can never be restarted by command",
        "`action P1 stop` on chi1, and no schedule carries a restart action for P1"),
    RestartLoop = ("AIR084", Warning, "a schedule-switch cycle restarts the same partition on every lap",
        "chi0 and chi1 both carry `action P0 warm_restart` and switch to each other"),
    ReachableScheduleUnclean = ("AIR085", Error, "a reachable schedule violates the per-schedule verification conditions",
        "chi1 fails Eq. 23 and an authority request reaches it from chi0"),
    DegradedScheduleTrap = ("AIR086", Warning, "recovery from the degraded schedule depends solely on link restoration",
        "`link … degraded=chi1` where chi1 windows no authority partition"),
    ExplorationInfeasible = ("AIR087", Error, "the mode/HM graph is too large for the packed explorer and was not explored",
        "65 partitions need 65 mode bits, one more than a packed state holds; the build gate refuses what it cannot check"),
    // Mesh-level cross-checks (`airlint --cluster` with ≥ 1 `node` directive).
    MeshUnreachableNode = ("AIR090", Error, "a declared mesh node has no route from this node",
        "node A declares `node N0` and the mesh knows N3, but N0 has no `route N3 via=…`"),
    MeshRoutingLoop = ("AIR091", Error, "the mesh routing tables walk a packet in a circle",
        "`route N2 via=N1` on N0 and `route N2 via=N0` on N1 — a packet for N2 ping-pongs forever"),
    MeshApidCollision = ("AIR092", Error, "two mesh nodes originate packets under the same APID",
        "`apid 100 name=CMD kind=tc` declared by both N0 and N2"),
    MeshRouteToUndeclaredNode = ("AIR093", Error, "a route references a node no document declares",
        "`route N7 via=N1` in a three-node mesh with no `node N7` document"),
    MeshNodeIdentityConflict = ("AIR094", Error, "mesh node identities are missing or duplicated",
        "two documents both declare `node N1`, or one cluster member has no `node` directive"),
    DeadlineStarvationAcrossModes = ("AIR095", Warning, "a reachable schedule cannot satisfy a partition's process deadlines",
        "a process is schedulable under the boot schedule but a commandable mode shrinks its window below its WCET"),
    ArqExhaustionUnrecoverable = ("AIR096", Warning, "ARQ retransmit exhaustion is reachable with no recovery path",
        "an `arq` transport over a link with no `degraded=` schedule: exhaustion has no repair path in any reachable state"),
    FailoverScheduleTrap = ("AIR097", Warning, "link failover stops a partition that recovery never restarts",
        "the degraded schedule stops a running partition and the nominal schedule has no restart action for the way back"),
    ExplorationCapped = ("AIR098", Warning, "bounded exploration is incomplete: it hit the state cap, or toggled only 16 of the node's mesh edges",
        "a 16-edge mesh node explored to depth 8 with `--max-states 4096`; findings may be incomplete"),
    FuzzDivergence = ("AIR099", Error, "a fuzzed configuration diverged between abstraction and concrete replay",
        "a witness replayed on the built system lands in a different abstract state than predicted"),
    // Self-healing mesh cross-checks (AIR100–AIR102).
    UnreachableAfterSingleEdgeLoss = ("AIR100", Warning, "a single edge loss disconnects part of the mesh beyond any reroute",
        "losing bridge edge N2-N3 of a line mesh strands N3; no alternate next hop can exist"),
    NoFallbackForCutNode = ("AIR101", Warning, "a node that one edge loss isolates declares no fallback",
        "leaf node N4 hangs off edge N3-N4 alone and its document has no `node … fallback=`"),
    RerouteTtlExhaustible = ("AIR102", Warning, "a worst-case rerouted path meets or exceeds the packet TTL budget",
        "on a 12-node ring the detour around a late edge loss takes 16 hops — the whole TTL budget"),
    // End-to-end timing certification (AIR110–AIR117).
    FlowDeadlineExceeded = ("AIR110", Error, "a flow's certified worst-case latency exceeds its declared deadline",
        "flow N0:100 -> N4 certifies 5820 ticks worst case against a 5000-tick deadline"),
    FlowUnroutable = ("AIR111", Error, "a declared flow has no route between its endpoints",
        "flow N0:100 -> N7 but neither routing table walks a packet from N0 to N7"),
    FlowArqUnbounded = ("AIR112", Error, "a flow crosses a member whose retransmission term is unbounded",
        "flow N0:100 -> N4 transits N2, whose document declares no `arq` — a lost frame is never repaired in bounded time"),
    FlowFailoverBudgetBlown = ("AIR113", Warning, "a flow's slack cannot absorb the reroute/failover penalty window",
        "flow N0:100 -> N4 leaves 90 ticks of slack but one mid-flight edge loss costs up to 512"),
    FlowOverDeadEndFallback = ("AIR114", Warning, "a flow's destination declares a fallback the flow source cannot reach",
        "flow N0:100 -> N4 and N4 falls back to N5, but no route walks a packet from N0 to N5"),
    FlowDeadlineMissing = ("AIR115", Error, "a declared flow carries no deadline to certify against",
        "flow N0:100 -> N4 with no `deadline=` — a bound without a budget certifies nothing"),
    FlowDeadlineBelowMtf = ("AIR116", Warning, "a flow's deadline is shorter than an on-path node's major time frame",
        "flow N0:100 -> N4 declares deadline=80 but N2 runs a 100-tick MTF — one window wait alone blows the budget"),
    FlowClockGranularityMismatch = ("AIR117", Warning, "flow endpoints disagree on link tick granularity",
        "flow N0:100 -> N4 crosses members declaring primary_latency=2 and primary_latency=6; the bound takes the worst"),
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a stable code, its severity, a message, and (when the
/// system came from configuration text) the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// Human-readable description of this particular finding.
    pub message: String,
    /// 1-based line in the configuration text, when known.
    pub line: Option<usize>,
}

impl Diagnostic {
    /// Creates a diagnostic without a source span.
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
            line: None,
        }
    }

    /// Attaches a source line.
    #[must_use]
    pub fn with_line(mut self, line: Option<usize>) -> Self {
        self.line = line;
        self
    }

    /// The fixed severity of the diagnostic's code.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// The finding as one line of JSON (the `airlint --json` format).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"code\":\"{}\"", self.code));
        out.push_str(&format!(",\"severity\":\"{}\"", self.severity()));
        match self.line {
            Some(n) => out.push_str(&format!(",\"line\":{n}")),
            None => out.push_str(",\"line\":null"),
        }
        out.push_str(&format!(",\"message\":\"{}\"", json_escape(&self.message)));
        out.push('}');
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(n) => write!(
                f,
                "{} [{}] line {}: {}",
                self.severity(),
                self.code,
                n,
                self.message
            ),
            None => write!(f, "{} [{}]: {}", self.severity(), self.code, self.message),
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The outcome of linting one system description.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Sorts findings into the stable presentation order (code, then
    /// source line, then message).
    pub fn finish(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (a.code, a.line, &a.message).cmp(&(b.code, b.line, &b.message)));
    }

    /// All findings.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of `Error`-level findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    /// Number of `Warning`-level findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
            .count()
    }

    /// Whether any `Error`-level finding is present.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Whether the report is completely empty.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether a finding with `code` is present.
    pub fn has_code(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// The findings as line-oriented JSON, one object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_json());
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return writeln!(f, "clean: no findings");
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} error(s), {} warning(s)",
            self.error_count(),
            self.warning_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_well_formed() {
        for (i, a) in Code::ALL.iter().enumerate() {
            assert!(a.as_str().starts_with("AIR"), "{a}");
            assert_eq!(a.as_str().len(), 6, "{a}");
            for b in &Code::ALL[i + 1..] {
                assert_ne!(a.as_str(), b.as_str());
            }
        }
    }

    #[test]
    fn codes_parse_back_and_carry_examples() {
        for &code in Code::ALL {
            assert_eq!(Code::parse(code.as_str()), Some(code));
            assert!(!code.example().is_empty(), "{code} lacks an example");
            assert!(!code.title().is_empty(), "{code} lacks a title");
        }
        assert_eq!(Code::parse("AIR999"), None);
        assert_eq!(Code::parse("air000"), None);
    }

    #[test]
    fn json_lines_escape_and_carry_spans() {
        let mut report = LintReport::new();
        report.push(Diagnostic::new(Code::ParseError, "bad \"token\"\non line").with_line(Some(3)));
        report.push(Diagnostic::new(Code::NoSchedules, "none declared"));
        report.finish();
        let json = report.to_json_lines();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"code\":\"AIR000\",\"severity\":\"error\",\"line\":3,\
             \"message\":\"bad \\\"token\\\"\\non line\"}"
        );
        assert!(lines[1].contains("\"line\":null"), "{}", lines[1]);
    }

    #[test]
    fn report_counts_by_severity() {
        let mut report = LintReport::new();
        report.push(Diagnostic::new(Code::WindowsOverlap, "x"));
        report.push(Diagnostic::new(Code::DanglingPort, "y"));
        assert!(report.has_errors());
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.warning_count(), 1);
        assert!(report.has_code(Code::WindowsOverlap));
        assert!(!report.has_code(Code::ZeroMtf));
    }
}

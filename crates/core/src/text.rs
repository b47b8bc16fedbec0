//! Decimal text without `core::fmt`: the one digit writer behind the
//! trace-log encoder and the workload message bodies.
//!
//! The fleet renders every trace line and builds every echo and port
//! message on its per-tick path, so these write their digits into stack
//! buffers instead of going through the formatting machinery and a
//! temporary `String`.

/// The decimal digits of a `u64`, right-aligned in a stack buffer.
pub(crate) struct Decimal {
    buf: [u8; 20],
    start: usize,
}

impl Decimal {
    /// The digits of `value` (`"0"` for zero, no sign, no padding).
    pub(crate) fn new(mut value: u64) -> Self {
        let mut buf = [b'0'; 20];
        let mut start = buf.len();
        loop {
            start -= 1;
            buf[start] = b'0' + (value % 10) as u8;
            value /= 10;
            if value == 0 {
                break;
            }
        }
        Self { buf, start }
    }

    /// The digits as bytes.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// The digits as text (always ASCII, so never empty).
    pub(crate) fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).unwrap_or_default()
    }
}

/// A message body of at most `N` bytes assembled on the stack, for text
/// that is copied once into a payload or a frame and never kept as a
/// `String`. Bytes past `N` are dropped, so `N` is sized for the longest
/// body its caller can build.
pub(crate) struct StackText<const N: usize> {
    buf: [u8; N],
    len: usize,
}

impl<const N: usize> StackText<N> {
    /// An empty body.
    pub(crate) fn new() -> Self {
        Self {
            buf: [0; N],
            len: 0,
        }
    }

    /// Appends `bytes`.
    pub(crate) fn push(&mut self, bytes: &[u8]) -> &mut Self {
        let take = bytes.len().min(N - self.len);
        debug_assert_eq!(take, bytes.len(), "StackText<{N}> overflowed");
        self.buf[self.len..self.len + take].copy_from_slice(&bytes[..take]);
        self.len += take;
        self
    }

    /// Appends the decimal digits of `value`.
    pub(crate) fn push_u64(&mut self, value: u64) -> &mut Self {
        self.push(Decimal::new(value).as_bytes())
    }

    /// The body so far.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_spells_like_display() {
        for v in [0, 1, 9, 10, 99, 100, 123_456, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(Decimal::new(v).as_str(), v.to_string());
        }
    }

    #[test]
    fn stack_text_concatenates_up_to_its_size() {
        let mut text = StackText::<24>::new();
        text.push(b"seq=").push_u64(42).push(b" t=").push_u64(7);
        assert_eq!(text.as_bytes(), b"seq=42 t=7");
        let mut full = StackText::<25>::new();
        full.push(b"echo-").push_u64(u64::MAX);
        assert_eq!(full.as_bytes(), format!("echo-{}", u64::MAX).as_bytes());
    }
}

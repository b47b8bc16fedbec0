//! Text console device: the source of keyboard interaction events
//! (Fig. 9).

use std::collections::VecDeque;

/// A keyboard event injected into the machine.
///
/// The prototype uses keyboard interaction "to allow switching to a given
/// partition scheduling table at the end of the present major time frame
/// and activating the faulty process on P1" (Sect. 6); demos and tests
/// script these events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyEvent {
    /// A printable character key.
    Char(char),
    /// A function key F1–F12 (1-based).
    Function(u8),
}

/// The console device's keyboard input queue.
///
/// Console *output* is not a device concern here: each partition's text
/// goes to its own buffer in the system (`AirSystem`), so output never
/// crosses partition boundaries, and VITRAL multiplexes those buffers
/// into windows.
///
/// # Examples
///
/// ```
/// use air_hw::console::{Console, KeyEvent};
///
/// let mut con = Console::new();
/// con.push_key(KeyEvent::Char('s'));
/// assert_eq!(con.pop_key(), Some(KeyEvent::Char('s')));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Console {
    keys: VecDeque<KeyEvent>,
}

impl Console {
    /// Creates a console with an empty key queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a keyboard event.
    pub fn push_key(&mut self, key: KeyEvent) {
        self.keys.push_back(key);
    }

    /// Pops the oldest pending keyboard event.
    pub fn pop_key(&mut self) -> Option<KeyEvent> {
        self.keys.pop_front()
    }

    /// Whether keyboard events are pending.
    pub fn has_pending_keys(&self) -> bool {
        !self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_fifo() {
        let mut c = Console::new();
        assert!(!c.has_pending_keys());
        c.push_key(KeyEvent::Char('1'));
        c.push_key(KeyEvent::Function(2));
        assert_eq!(c.pop_key(), Some(KeyEvent::Char('1')));
        assert_eq!(c.pop_key(), Some(KeyEvent::Function(2)));
        assert_eq!(c.pop_key(), None);
    }
}

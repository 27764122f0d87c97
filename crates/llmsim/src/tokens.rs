//! Token estimation.
//!
//! The simulator bills tokens the way an LLM API does: every call pays for
//! the full transcript as prompt plus the emitted text as completion. We
//! approximate tokenization at 4 characters per token — the standard rule of
//! thumb for English/JSON mixtures and the same granularity the paper's
//! token tables operate at.

/// Approximate characters per token.
pub(crate) const CHARS_PER_TOKEN: usize = 4;

/// Estimate the token count of a text.
pub fn estimate(text: &str) -> usize {
    text.chars().count().div_ceil(CHARS_PER_TOKEN)
}

/// Running token accumulator with an overflow limit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ContextWindow {
    /// Maximum tokens the window can hold.
    pub limit: usize,
    used: usize,
}

impl ContextWindow {
    /// A window with the given token limit.
    pub(crate) fn new(limit: usize) -> Self {
        ContextWindow { limit, used: 0 }
    }

    /// Tokens currently in the window.
    pub(crate) fn used(&self) -> usize {
        self.used
    }

    /// Add tokens; returns `false` (and saturates) on overflow.
    pub(crate) fn push(&mut self, tokens: usize) -> bool {
        self.used = self.used.saturating_add(tokens);
        self.used <= self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_are_chars_over_four_rounded_up() {
        assert_eq!(estimate(""), 0);
        assert_eq!(estimate("abcd"), 1);
        assert_eq!(estimate("abcde"), 2);
        assert_eq!(estimate(&"x".repeat(400)), 100);
    }

    #[test]
    fn multibyte_counts_chars_not_bytes() {
        assert_eq!(estimate("éééé"), 1);
    }

    #[test]
    fn window_overflow() {
        let mut w = ContextWindow::new(10);
        assert!(w.push(6));
        assert!(w.push(4));
        assert!(!w.push(1));
        assert_eq!(w.used(), 11);
        assert!(!w.push(0), "an overflowed window stays overflowed");
    }
}

//! Stop-and-wait ARQ on top of the CRC-protected frames.
//!
//! The paper's payload layer detects corruption (our CRC) but does not
//! specify recovery. This module adds the minimal reliable-delivery layer
//! a deployment needs: 1-bit sequence numbers, acknowledgements and
//! bounded retransmission — stop-and-wait, because the MilBack medium is
//! half-duplex by construction (the AP owns the query signal).

/// 1-bit sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqBit {
    /// Sequence 0.
    Zero,
    /// Sequence 1.
    One,
}

impl SeqBit {
    /// The alternate sequence value.
    pub fn toggled(self) -> Self {
        match self {
            SeqBit::Zero => SeqBit::One,
            SeqBit::One => SeqBit::Zero,
        }
    }

    /// Header byte encoding of this sequence bit.
    fn to_byte(self) -> u8 {
        match self {
            SeqBit::Zero => 0xA0,
            SeqBit::One => 0xA1,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0xA0 => Some(SeqBit::Zero),
            0xA1 => Some(SeqBit::One),
            _ => None,
        }
    }
}

/// Prepends the ARQ header (sequence bit) to a payload; the result is
/// what gets framed and transmitted. Allocating wrapper over
/// [`with_header_into`].
pub fn with_header(seq: SeqBit, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 1);
    with_header_into(seq, payload, &mut out);
    out
}

/// Writes the ARQ header + payload into `out` (cleared first). After
/// warm-up the buffer is reused without reallocating, which is what
/// keeps retry loops on the zero-alloc budget of DESIGN.md §12.
pub fn with_header_into(seq: SeqBit, payload: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(payload.len() + 1);
    out.push(seq.to_byte());
    out.extend_from_slice(payload);
}

/// Splits a received (CRC-valid) frame into its ARQ header and payload.
/// Returns `None` for an unrecognized header.
pub fn parse_header(frame: &[u8]) -> Option<(SeqBit, &[u8])> {
    let (&head, rest) = frame.split_first()?;
    Some((SeqBit::from_byte(head)?, rest))
}

/// Sender-side stop-and-wait state machine.
#[derive(Debug, Clone)]
pub struct ArqSender {
    seq: SeqBit,
    /// Maximum transmissions per payload (1 original + retries).
    pub max_attempts: usize,
    attempts: usize,
    in_flight: Option<Vec<u8>>,
    /// Retired frame buffer, reused by the next [`Self::start`] so a
    /// steady-state retry loop allocates nothing.
    spare: Option<Vec<u8>>,
}

/// What the sender should do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SenderAction {
    /// Transmit this frame (header already attached).
    Transmit(Vec<u8>),
    /// The in-flight payload was delivered; ready for the next one.
    Delivered,
    /// Retry budget exhausted; the payload is dropped.
    GiveUp,
}

/// Allocation-free variant of [`SenderAction`]: on [`ArqVerdict::Retry`]
/// the caller re-reads the in-flight frame via [`ArqSender::frame`]
/// instead of receiving a clone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArqVerdict {
    /// Retransmit the in-flight frame ([`ArqSender::frame`]).
    Retry,
    /// The in-flight payload was delivered; ready for the next one.
    Delivered,
    /// Retry budget exhausted; the payload is dropped.
    GiveUp,
}

/// Exponential backoff policy shared by the ARQ retry loop and the
/// session supervisor: attempt `k` (1-based) waits
/// `min(base · factor^(k−1), max)` seconds before retrying.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Backoff {
    /// Delay before the first retry, seconds.
    pub base_s: f64,
    /// Multiplier per subsequent retry.
    pub factor: f64,
    /// Delay ceiling, seconds.
    pub max_s: f64,
}

impl Default for Backoff {
    fn default() -> Self {
        Self::milback()
    }
}

impl Backoff {
    /// Default policy: 5 ms, doubling, capped at 80 ms — a handful of
    /// packet airtimes, so a retry can outlive a short blockage without
    /// stalling the session.
    pub fn milback() -> Self {
        Self {
            base_s: 5e-3,
            factor: 2.0,
            max_s: 80e-3,
        }
    }

    /// Delay before retry attempt `k` (1-based), seconds. Attempt 0
    /// (the original transmission) waits nothing.
    pub fn delay_s(&self, attempt: usize) -> f64 {
        if attempt == 0 {
            return 0.0;
        }
        let exp = (attempt - 1).min(52) as i32;
        (self.base_s * self.factor.powi(exp)).min(self.max_s)
    }

    /// Total delay across retries `1..=n`, seconds.
    pub fn total_s(&self, n: usize) -> f64 {
        (1..=n).map(|k| self.delay_s(k)).sum()
    }
}

impl Default for ArqSender {
    fn default() -> Self {
        Self::new(4)
    }
}

impl ArqSender {
    /// Creates a sender allowing `max_attempts` transmissions per payload.
    pub fn new(max_attempts: usize) -> Self {
        assert!(max_attempts >= 1, "need at least one attempt");
        Self {
            seq: SeqBit::Zero,
            max_attempts,
            attempts: 0,
            in_flight: None,
            spare: None,
        }
    }

    /// Whether the sender is idle (no payload awaiting acknowledgement).
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_none()
    }

    /// Queues a payload; returns the first frame to transmit.
    ///
    /// # Panics
    /// Panics if a payload is already in flight.
    pub fn send(&mut self, payload: &[u8]) -> Vec<u8> {
        assert!(self.is_idle(), "previous payload still in flight");
        self.start(payload);
        self.frame().unwrap_or_default().to_vec()
    }

    /// Allocation-conscious variant of [`Self::send`]: queues the
    /// payload, reusing the sender's internal frame buffer from the
    /// previous exchange; the caller reads the frame to transmit via
    /// [`Self::frame`].
    ///
    /// # Panics
    /// Panics if a payload is already in flight.
    pub fn start(&mut self, payload: &[u8]) {
        assert!(self.is_idle(), "previous payload still in flight");
        let mut buf = self.spare.take().unwrap_or_default();
        with_header_into(self.seq, payload, &mut buf);
        self.in_flight = Some(buf);
        self.attempts = 1;
        milback_telemetry::counter_add("proto.arq.sent", 1);
    }

    /// The frame currently awaiting acknowledgement (header attached),
    /// or `None` when idle.
    pub fn frame(&self) -> Option<&[u8]> {
        self.in_flight.as_deref()
    }

    /// Transmissions of the current payload so far (0 when idle).
    pub fn attempts(&self) -> usize {
        self.attempts
    }

    /// Processes the outcome of the last transmission: `acked_seq` is the
    /// sequence bit the receiver acknowledged (`None` = no/garbled ACK).
    /// Allocating wrapper over [`Self::on_ack_verdict`].
    pub fn on_ack(&mut self, acked_seq: Option<SeqBit>) -> SenderAction {
        match self.on_ack_verdict(acked_seq) {
            ArqVerdict::Delivered => SenderAction::Delivered,
            ArqVerdict::GiveUp => SenderAction::GiveUp,
            ArqVerdict::Retry => SenderAction::Transmit(self.frame().unwrap_or_default().to_vec()),
        }
    }

    /// Allocation-free variant of [`Self::on_ack`]: on
    /// [`ArqVerdict::Retry`] the in-flight frame stays available through
    /// [`Self::frame`] — nothing is cloned.
    pub fn on_ack_verdict(&mut self, acked_seq: Option<SeqBit>) -> ArqVerdict {
        if self.in_flight.is_none() {
            return ArqVerdict::Delivered;
        }
        if acked_seq == Some(self.seq) {
            self.retire();
            milback_telemetry::counter_add("proto.arq.delivered", 1);
            return ArqVerdict::Delivered;
        }
        if self.attempts >= self.max_attempts {
            self.retire();
            milback_telemetry::counter_add("proto.arq.giveups", 1);
            return ArqVerdict::GiveUp;
        }
        self.attempts += 1;
        milback_telemetry::counter_add("proto.arq.retries", 1);
        ArqVerdict::Retry
    }

    /// Releases the in-flight frame, keeping its buffer for reuse, and
    /// advances the sequence.
    fn retire(&mut self) {
        self.spare = self.in_flight.take();
        self.attempts = 0;
        self.seq = self.seq.toggled();
    }
}

/// Receiver-side stop-and-wait state: filters duplicates and produces the
/// ACK to return.
#[derive(Debug, Clone, Default)]
pub struct ArqReceiver {
    last_accepted: Option<SeqBit>,
}

impl ArqReceiver {
    /// Creates a fresh receiver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Processes a CRC-valid incoming frame. Returns `(ack, payload)`:
    /// `ack` is the sequence bit to acknowledge, and `payload` is `Some`
    /// only for first-time (non-duplicate) deliveries.
    pub fn on_frame<'a>(&mut self, frame: &'a [u8]) -> Option<(SeqBit, Option<&'a [u8]>)> {
        let (seq, payload) = parse_header(frame)?;
        if self.last_accepted == Some(seq) {
            // Duplicate: re-ACK, do not deliver again.
            return Some((seq, None));
        }
        self.last_accepted = Some(seq);
        Some((seq, Some(payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip() {
        let framed = with_header(SeqBit::One, b"abc");
        let (seq, payload) = parse_header(&framed).unwrap();
        assert_eq!(seq, SeqBit::One);
        assert_eq!(payload, b"abc");
        assert!(parse_header(&[0x55, 1, 2]).is_none());
        assert!(parse_header(&[]).is_none());
    }

    #[test]
    fn clean_delivery_advances_sequence() {
        let mut tx = ArqSender::new(3);
        let mut rx = ArqReceiver::new();
        for round in 0..4u8 {
            let frame = tx.send(&[round]);
            let (ack, delivered) = rx.on_frame(&frame).unwrap();
            assert_eq!(delivered, Some(&[round][..]), "round {round}");
            assert_eq!(tx.on_ack(Some(ack)), SenderAction::Delivered);
            assert!(tx.is_idle());
        }
    }

    #[test]
    fn lost_frame_is_retransmitted() {
        let mut tx = ArqSender::new(3);
        let mut rx = ArqReceiver::new();
        let frame = tx.send(b"data");
        // Frame lost: no ACK.
        let action = tx.on_ack(None);
        let SenderAction::Transmit(retry) = action else {
            panic!("expected retransmission, got {action:?}");
        };
        assert_eq!(retry, frame);
        // Retry arrives.
        let (ack, delivered) = rx.on_frame(&retry).unwrap();
        assert_eq!(delivered, Some(&b"data"[..]));
        assert_eq!(tx.on_ack(Some(ack)), SenderAction::Delivered);
    }

    #[test]
    fn lost_ack_causes_duplicate_which_is_filtered() {
        let mut tx = ArqSender::new(3);
        let mut rx = ArqReceiver::new();
        let frame = tx.send(b"once");
        // Frame arrives, ACK lost.
        let (_ack, delivered) = rx.on_frame(&frame).unwrap();
        assert_eq!(delivered, Some(&b"once"[..]));
        let SenderAction::Transmit(retry) = tx.on_ack(None) else {
            panic!("expected retry");
        };
        // Duplicate arrives: re-ACKed but NOT delivered twice.
        let (ack2, delivered2) = rx.on_frame(&retry).unwrap();
        assert_eq!(delivered2, None, "duplicate delivered");
        assert_eq!(tx.on_ack(Some(ack2)), SenderAction::Delivered);
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let mut tx = ArqSender::new(2);
        let _ = tx.send(b"x");
        assert!(matches!(tx.on_ack(None), SenderAction::Transmit(_)));
        assert_eq!(tx.on_ack(None), SenderAction::GiveUp);
        assert!(tx.is_idle());
        // Sequence still advances so the next payload isn't mistaken for a
        // duplicate of the dropped one.
        let next = tx.send(b"y");
        assert_eq!(parse_header(&next).unwrap().0, SeqBit::One);
    }

    #[test]
    fn wrong_seq_ack_is_ignored() {
        let mut tx = ArqSender::new(3);
        let _ = tx.send(b"x");
        // ACK for the other sequence: treated as no ACK.
        assert!(matches!(
            tx.on_ack(Some(SeqBit::One)),
            SenderAction::Transmit(_)
        ));
    }

    #[test]
    #[should_panic(expected = "still in flight")]
    fn cannot_send_while_in_flight() {
        let mut tx = ArqSender::new(3);
        let _ = tx.send(b"a");
        let _ = tx.send(b"b");
    }

    #[test]
    fn with_header_into_matches_allocating_variant() {
        let mut buf = Vec::new();
        with_header_into(SeqBit::Zero, b"payload", &mut buf);
        assert_eq!(buf, with_header(SeqBit::Zero, b"payload"));
        // Reuse: the buffer is cleared, not appended to.
        with_header_into(SeqBit::One, b"xy", &mut buf);
        assert_eq!(buf, with_header(SeqBit::One, b"xy"));
        let cap = buf.capacity();
        with_header_into(SeqBit::Zero, b"z", &mut buf);
        assert_eq!(buf.capacity(), cap, "reuse must not reallocate");
    }

    #[test]
    fn verdict_api_matches_action_api() {
        let mut tx = ArqSender::new(2);
        let mut rx = ArqReceiver::new();
        tx.start(b"data");
        assert_eq!(tx.attempts(), 1);
        let frame = tx.frame().expect("in flight").to_vec();
        // Lost: verdict says retry, frame unchanged, nothing cloned.
        assert_eq!(tx.on_ack_verdict(None), ArqVerdict::Retry);
        assert_eq!(tx.frame(), Some(&frame[..]));
        assert_eq!(tx.attempts(), 2);
        let (ack, delivered) = rx.on_frame(&frame).expect("parse");
        assert_eq!(delivered, Some(&b"data"[..]));
        assert_eq!(tx.on_ack_verdict(Some(ack)), ArqVerdict::Delivered);
        assert!(tx.is_idle());
        assert_eq!(tx.frame(), None);
        // Budget exhaustion through the verdict API.
        tx.start(b"next");
        assert_eq!(tx.on_ack_verdict(None), ArqVerdict::Retry);
        assert_eq!(tx.on_ack_verdict(None), ArqVerdict::GiveUp);
        assert!(tx.is_idle());
    }

    #[test]
    fn start_reuses_the_retired_buffer() {
        let mut tx = ArqSender::new(1);
        tx.start(b"aaaaaaaaaaaaaaaa");
        let ptr = tx.frame().expect("in flight").as_ptr();
        assert_eq!(tx.on_ack_verdict(None), ArqVerdict::GiveUp);
        tx.start(b"bbbbbbbb");
        // Same allocation, recycled through the spare slot.
        assert_eq!(tx.frame().expect("in flight").as_ptr(), ptr);
    }

    #[test]
    fn backoff_grows_and_saturates() {
        let b = Backoff::milback();
        assert_eq!(b.delay_s(0), 0.0);
        assert!((b.delay_s(1) - 5e-3).abs() < 1e-12);
        assert!((b.delay_s(2) - 10e-3).abs() < 1e-12);
        assert!((b.delay_s(3) - 20e-3).abs() < 1e-12);
        assert_eq!(b.delay_s(10), b.max_s);
        assert_eq!(b.delay_s(100), b.max_s, "large attempts must not overflow");
        assert!((b.total_s(2) - 15e-3).abs() < 1e-12);
    }
}

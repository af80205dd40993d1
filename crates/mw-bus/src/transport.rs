//! Framed transport for the TCP topic bridge.
//!
//! Protocol v2 replaces the bare `length + JSON` framing with a typed,
//! checksummed, sequence-numbered frame so the remote layer can detect
//! corruption, deduplicate redundant delivery, and resume a subscription
//! after reconnecting. Wire layout, all integers big-endian:
//!
//! ```text
//! [kind: u8][seq: u64][len: u32][checksum: u32][payload: len bytes]
//! ```
//!
//! `checksum` is FNV-1a over `kind || seq || payload`, so a flipped bit
//! anywhere in the frame body is caught before the payload reaches a
//! JSON parser. `len` is bounded by [`MAX_FRAME_BYTES`], so a corrupt
//! length prefix cannot trigger a giant allocation.
//!
//! The [`FrameTransport`] trait splits reading into an *unverified* wire
//! step ([`FrameTransport::recv_wire`]) and a verification step
//! ([`WireFrame::verify`]). The fault-injection layer ([`crate::fault`])
//! sits between the two: it mutates `WireFrame`s (corrupt, drop,
//! duplicate, …) and lets the normal verification path reject them,
//! exactly as a real bit flip would be rejected.

use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::time::Duration;

use bytes::{Buf, BufMut, BytesMut};
use serde::de::DeserializeOwned;
use serde::Serialize;

/// Upper bound on a single frame payload, rejecting corrupt length
/// prefixes before they become allocations.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Bytes of frame header preceding the payload.
pub const FRAME_HEADER_BYTES: usize = 1 + 8 + 4 + 4;

/// What a frame means to the topic bridge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: first frame on a connection; `seq` is the first
    /// sequence number the client wants (resume point).
    Hello,
    /// Server → client: handshake acknowledgement; `seq` is the first
    /// sequence number the server will actually send (≥ the requested
    /// resume point when history has been evicted).
    HelloAck,
    /// Server → client: one published message; `seq` increments by one
    /// per message on a topic.
    Data,
    /// Server → client: liveness signal on an idle connection; `seq`
    /// echoes the last assigned data sequence number.
    Heartbeat,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Hello => 0,
            FrameKind::HelloAck => 1,
            FrameKind::Data => 2,
            FrameKind::Heartbeat => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(FrameKind::Hello),
            1 => Some(FrameKind::HelloAck),
            2 => Some(FrameKind::Data),
            3 => Some(FrameKind::Heartbeat),
            _ => None,
        }
    }
}

/// A verified frame: the kind byte was known and the checksum matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame means.
    pub kind: FrameKind,
    /// Sequence number (meaning depends on `kind`, see [`FrameKind`]).
    pub seq: u64,
    /// Serialized message for `Data` frames; empty for control frames.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Control frame with no payload.
    #[must_use]
    pub fn control(kind: FrameKind, seq: u64) -> Self {
        Frame {
            kind,
            seq,
            payload: Vec::new(),
        }
    }

    /// Data frame carrying `message` as JSON.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when the message cannot be serialized
    /// (e.g. it contains a non-finite float).
    pub fn data<T: Serialize>(seq: u64, message: &T) -> std::io::Result<Self> {
        let payload = serde_json::to_vec(message)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok(Frame {
            kind: FrameKind::Data,
            seq,
            payload,
        })
    }

    /// Parses the payload of a `Data` frame.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when the payload is not valid JSON for `T`.
    pub fn decode<T: DeserializeOwned>(&self) -> std::io::Result<T> {
        serde_json::from_slice(&self.payload)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// A frame as read off the wire: layout was intact (known length, within
/// bounds) but the kind byte and checksum have not been verified yet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame {
    /// Raw kind byte.
    pub kind: u8,
    /// Raw sequence number.
    pub seq: u64,
    /// Checksum as transmitted.
    pub checksum: u32,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

impl WireFrame {
    /// Encodes a verified frame, computing its checksum.
    #[must_use]
    pub fn from_frame(frame: &Frame) -> Self {
        let kind = frame.kind.to_byte();
        WireFrame {
            kind,
            seq: frame.seq,
            checksum: frame_checksum(kind, frame.seq, &frame.payload),
            payload: frame.payload.clone(),
        }
    }

    /// Verifies kind byte and checksum, producing a trusted [`Frame`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on an unknown kind or a checksum mismatch —
    /// the caller must treat the connection as corrupt.
    pub fn verify(self) -> std::io::Result<Frame> {
        let kind = FrameKind::from_byte(self.kind).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unknown frame kind {}", self.kind),
            )
        })?;
        let expect = frame_checksum(self.kind, self.seq, &self.payload);
        if expect != self.checksum {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "frame checksum mismatch (got {:#010x}, computed {expect:#010x})",
                    self.checksum
                ),
            ));
        }
        Ok(Frame {
            kind,
            seq: self.seq,
            payload: self.payload,
        })
    }
}

/// FNV-1a over the frame body (`kind || seq || payload`).
#[must_use]
pub fn frame_checksum(kind: u8, seq: u64, payload: &[u8]) -> u32 {
    let mut hash = 0x811c_9dc5u32;
    let mut step = |b: u8| {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    };
    step(kind);
    for b in seq.to_be_bytes() {
        step(b);
    }
    for &b in payload {
        step(b);
    }
    hash
}

/// Encodes a frame (with checksum) into a write-ready buffer.
#[must_use]
pub fn encode_frame(frame: &Frame) -> BytesMut {
    encode_wire(&WireFrame::from_frame(frame))
}

/// Encodes a wire frame verbatim — the checksum field is written as-is,
/// which is what lets the fault layer emit deliberately corrupt frames.
#[must_use]
pub fn encode_wire(wire: &WireFrame) -> BytesMut {
    let mut buf = BytesMut::with_capacity(FRAME_HEADER_BYTES + wire.payload.len());
    buf.put_u8(wire.kind);
    buf.put_u64(wire.seq);
    buf.put_u32(wire.payload.len() as u32);
    buf.put_u32(wire.checksum);
    buf.put_slice(&wire.payload);
    buf
}

/// Reads one wire frame; `Ok(None)` on a clean EOF at a frame boundary.
///
/// # Errors
///
/// `InvalidData` when the length prefix exceeds [`MAX_FRAME_BYTES`];
/// `UnexpectedEof` when the stream ends mid-frame (truncation); other
/// I/O errors pass through (including `WouldBlock`/`TimedOut` from a
/// read timeout, which the remote layer treats as a liveness failure).
pub fn read_wire_frame<R: Read>(reader: &mut R) -> std::io::Result<Option<WireFrame>> {
    // Clean EOF is only an EOF *between* frames: read the first header
    // byte separately so a stream cut mid-header is UnexpectedEof, not
    // a silent end-of-stream.
    let mut header = [0u8; FRAME_HEADER_BYTES];
    loop {
        match reader.read(&mut header[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    reader.read_exact(&mut header[1..])?;
    let mut cursor = &header[..];
    let kind = cursor.get_u8();
    let seq = cursor.get_u64();
    let len = cursor.get_u32() as usize;
    let checksum = cursor.get_u32();
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(Some(WireFrame {
        kind,
        seq,
        checksum,
        payload,
    }))
}

/// Reads and verifies one frame; `Ok(None)` on clean EOF.
///
/// # Errors
///
/// Everything [`read_wire_frame`] returns, plus `InvalidData` for an
/// unknown kind byte or a checksum mismatch.
pub fn read_frame<R: Read>(reader: &mut R) -> std::io::Result<Option<Frame>> {
    match read_wire_frame(reader)? {
        Some(wire) => wire.verify().map(Some),
        None => Ok(None),
    }
}

/// A bidirectional frame channel. The default `send`/`recv` go through
/// checksum computation/verification; the wire-level methods are the
/// seam where [`crate::fault::FaultInjector`] interposes.
pub trait FrameTransport: Send {
    /// Writes one wire frame verbatim.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying stream.
    fn send_wire(&mut self, wire: &WireFrame) -> std::io::Result<()>;

    /// Reads one wire frame without verifying it; `Ok(None)` on EOF.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying stream.
    fn recv_wire(&mut self) -> std::io::Result<Option<WireFrame>>;

    /// Bounds how long `recv` may block (`None` = forever).
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying stream.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()>;

    /// Sends a frame, computing its checksum.
    ///
    /// # Errors
    ///
    /// See [`FrameTransport::send_wire`].
    fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        self.send_wire(&WireFrame::from_frame(frame))
    }

    /// Receives and verifies a frame; `Ok(None)` on EOF.
    ///
    /// # Errors
    ///
    /// See [`FrameTransport::recv_wire`] and [`WireFrame::verify`].
    fn recv(&mut self) -> std::io::Result<Option<Frame>> {
        match self.recv_wire()? {
            Some(wire) => wire.verify().map(Some),
            None => Ok(None),
        }
    }
}

/// [`FrameTransport`] over a TCP stream.
#[derive(Debug)]
pub struct TcpFrameTransport {
    stream: TcpStream,
}

impl TcpFrameTransport {
    /// Connects to `addr` with `TCP_NODELAY` set.
    ///
    /// # Errors
    ///
    /// Returns the connection error when the peer is unreachable.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(TcpFrameTransport { stream })
    }

    /// Wraps an accepted stream.
    #[must_use]
    pub fn new(stream: TcpStream) -> Self {
        stream.set_nodelay(true).ok();
        TcpFrameTransport { stream }
    }
}

impl FrameTransport for TcpFrameTransport {
    fn send_wire(&mut self, wire: &WireFrame) -> std::io::Result<()> {
        self.stream.write_all(&encode_wire(wire))
    }

    fn recv_wire(&mut self) -> std::io::Result<Option<WireFrame>> {
        read_wire_frame(&mut self.stream)
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }
}

/// Unblocks a listener thread parked in `accept` so it can observe its
/// stop flag: connects to it and hangs up. `addr` is the listener's
/// `local_addr`; one bound to the wildcard address is reached over
/// loopback, since not every platform connects to `0.0.0.0`.
///
/// A refused connection means nobody is listening any more, which is the
/// goal. A timed-out one means the backlog is full, and then the loop is
/// not parked: it sees the flag after the accept it is about to make.
pub(crate) fn wake_accept_loop(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(100));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrips_through_bytes() {
        let frame = Frame::data(42, &"payload".to_string()).unwrap();
        let encoded = encode_frame(&frame);
        let mut cursor = Cursor::new(encoded.to_vec());
        let back = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(back, frame);
        assert_eq!(back.decode::<String>().unwrap(), "payload");
        // Clean EOF at the boundary.
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn control_frames_roundtrip() {
        for kind in [FrameKind::Hello, FrameKind::HelloAck, FrameKind::Heartbeat] {
            let frame = Frame::control(kind, 7);
            let mut cursor = Cursor::new(encode_frame(&frame).to_vec());
            assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), frame);
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut bytes = encode_frame(&Frame::control(FrameKind::Data, 1)).to_vec();
        // Overwrite the length field (offset 9) with u32::MAX.
        bytes[9..13].copy_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_an_error_not_eof() {
        let full = encode_frame(&Frame::data(1, &vec![1u32, 2, 3]).unwrap()).to_vec();
        for cut in [1, FRAME_HEADER_BYTES - 1, full.len() - 1] {
            let err = read_frame(&mut Cursor::new(full[..cut].to_vec())).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut={cut}");
        }
    }

    #[test]
    fn flipped_bit_fails_checksum() {
        let frame = Frame::data(9, &"sensitive".to_string()).unwrap();
        let clean = encode_frame(&frame).to_vec();
        // Flip one bit in every byte position in turn; each corruption
        // must be rejected (header corruption may also surface as an
        // unknown kind or an oversized length — any InvalidData is fine;
        // a corrupt length can also present as truncation).
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x01;
            match read_frame(&mut Cursor::new(bad)) {
                Err(e) => assert!(
                    matches!(
                        e.kind(),
                        std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof
                    ),
                    "byte {i}: unexpected error {e:?}"
                ),
                Ok(other) => panic!("byte {i}: corruption accepted as {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut wire = WireFrame::from_frame(&Frame::control(FrameKind::Data, 3));
        wire.kind = 200;
        wire.checksum = frame_checksum(200, 3, &wire.payload);
        let err = wire.verify().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}

//! Stream transport for the distributed runtime: Unix domain sockets.
//!
//! The transport deals in [`Frame`]s.  Reading is incremental — a
//! [`FrameReader`] accumulates bytes into one reusable buffer and yields a
//! frame as soon as its length prefix is satisfied, returning `Ok(None)`
//! on a read timeout so callers can interleave periodic work.  Writing
//! goes through a [`BatchWriter`] that performs the encoder-side batching
//! the `RtConfig` knobs describe: tuple deliveries accumulate until
//! `batch_size` of them (or the `linger` deadline) and leave as a single
//! `TupleBatch` frame in one vectored write; control frames flush pending
//! tuples first so cross-frame ordering is preserved.

use std::io::{self, IoSlice, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::codec::{self, Frame, WireTuple, MAX_FRAME_LEN};
use crate::error::{Error, Result};

/// Live per-connection transport counters, shared between the reader and
/// writer halves of one socket and whatever aggregates them (the
/// coordinator mirrors these into its metrics registry as
/// `dsdps_dist_conn_*` samples; the worker exports them in its
/// `MetricsPush`).  All fields are relaxed atomics — one store per frame,
/// nothing per tuple.
#[derive(Debug)]
pub struct ConnStats {
    /// Clock epoch for [`ConnStats::now_us`] / `last_rx_us`.
    epoch: Instant,
    /// Payload bytes received.
    pub bytes_in: AtomicU64,
    /// Frames decoded.
    pub frames_in: AtomicU64,
    /// Payload bytes written (including length prefixes).
    pub bytes_out: AtomicU64,
    /// Frames written.
    pub frames_out: AtomicU64,
    /// Cumulative frame-decode time, µs.
    pub decode_us: AtomicU64,
    /// Cumulative frame-encode time, µs.
    pub encode_us: AtomicU64,
    /// Cumulative time spent inside socket writes, µs.  A healthy
    /// connection keeps this near zero per frame; a peer that stops
    /// draining (the §15.4 deadlock class) makes it climb — which is the
    /// point of tracking it.
    pub write_block_us: AtomicU64,
    /// Epoch-relative µs of the most recent successfully decoded frame
    /// (the coordinator's heartbeat-lag detector reads this).
    pub last_rx_us: AtomicU64,
}

impl Default for ConnStats {
    fn default() -> Self {
        ConnStats {
            epoch: Instant::now(),
            bytes_in: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            decode_us: AtomicU64::new(0),
            encode_us: AtomicU64::new(0),
            write_block_us: AtomicU64::new(0),
            last_rx_us: AtomicU64::new(0),
        }
    }
}

impl ConnStats {
    /// A fresh zeroed stats block with its epoch at now.
    pub fn new() -> Arc<Self> {
        Arc::new(ConnStats::default())
    }

    /// µs elapsed since the stats block was created.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The cumulative counters as `(name, value)` pairs, for whoever
    /// mirrors them into a metrics registry.
    pub fn counters(&self) -> [(&'static str, u64); 7] {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        [
            ("bytes_in", get(&self.bytes_in)),
            ("bytes_out", get(&self.bytes_out)),
            ("frames_in", get(&self.frames_in)),
            ("frames_out", get(&self.frames_out)),
            ("decode_us", get(&self.decode_us)),
            ("encode_us", get(&self.encode_us)),
            ("write_block_us", get(&self.write_block_us)),
        ]
    }

    /// Seconds since the last decoded frame (`now - last_rx_us`); `None`
    /// before the first frame arrives.
    pub fn rx_silence_s(&self) -> Option<f64> {
        let last = self.last_rx_us.load(Ordering::Relaxed);
        if last == 0 {
            return None;
        }
        Some((self.now_us().saturating_sub(last)) as f64 / 1e6)
    }
}

/// Where a coordinator listens / a worker connects: a Unix domain socket
/// path.
///
/// Rendered as `unix:<path>` in the `DSDPS_DIST_ADDR` environment variable
/// handed to worker processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Endpoint(PathBuf);

impl Endpoint {
    /// Renders the endpoint for `DSDPS_DIST_ADDR`.
    pub fn to_env(&self) -> String {
        format!("unix:{}", self.0.display())
    }

    /// Parses a `DSDPS_DIST_ADDR` value.
    pub fn from_env(value: &str) -> Result<Endpoint> {
        match value.strip_prefix("unix:") {
            Some(path) => Ok(Endpoint(path.into())),
            None => Err(Error::Config(format!("unparseable endpoint `{value}`"))),
        }
    }

    /// Removes the socket's file once its listener is done (or its process
    /// dead).
    pub fn unlink(&self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A listening socket.
pub struct Listener(UnixListener);

impl Listener {
    /// Binds a listener on a fresh socket path under the system temp
    /// directory.
    pub fn unix_temp() -> Result<(Listener, Endpoint)> {
        // Process id + monotonic counter keeps concurrent coordinators in
        // one test binary from colliding.
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "dsdps-dist-{}-{}.sock",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&path);
        let l = UnixListener::bind(&path)
            .map_err(|e| Error::Runtime(format!("bind {}: {e}", path.display())))?;
        Ok((Listener(l), Endpoint(path)))
    }

    /// Blocks until a connection arrives and accepts it.  The listener
    /// never polls, so the result is never `Ok(None)`.
    pub fn accept(&self) -> io::Result<Option<Conn>> {
        self.0.accept().map(|(s, _)| Some(Conn(s)))
    }
}

/// One established connection.
pub struct Conn(UnixStream);

impl Conn {
    /// Connects to `endpoint`, retrying every 10 ms until `timeout` (a
    /// worker started by hand may launch before its coordinator listens;
    /// `submit` binds before it spawns, so its own fleet never retries).
    pub fn connect(endpoint: &Endpoint, timeout: Duration) -> Result<Conn> {
        let deadline = Instant::now() + timeout;
        loop {
            match UnixStream::connect(&endpoint.0) {
                Ok(s) => return Ok(Conn(s)),
                Err(e) if Instant::now() >= deadline => {
                    return Err(Error::Runtime(format!(
                        "connect to {}: {e}",
                        endpoint.to_env()
                    )));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// An independently usable handle to the same socket (reader and
    /// writer sides of one connection live on different threads).
    pub fn try_clone(&self) -> io::Result<Conn> {
        self.0.try_clone().map(Conn)
    }

    /// Bounds how long a read blocks (`None` = forever).
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.0.set_read_timeout(t)
    }

    /// Shuts down both directions, unblocking any reader.
    pub fn shutdown(&self) {
        let _ = self.0.shutdown(std::net::Shutdown::Both);
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.0.write_vectored(bufs)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

/// Incremental frame reader with one reusable receive buffer.
pub struct FrameReader {
    conn: Conn,
    buf: Vec<u8>,
    /// Bytes of `buf` that hold received-but-unparsed data.
    filled: usize,
    /// Parse offset within `buf[..filled]`.
    pos: usize,
    /// Total payload bytes received (telemetry).
    pub bytes_in: u64,
    /// Total frames decoded (telemetry).
    pub frames_in: u64,
    /// Shared live counters, when someone is watching.
    stats: Option<Arc<ConnStats>>,
}

impl FrameReader {
    /// Wraps a connection.
    pub fn new(conn: Conn) -> Self {
        FrameReader {
            conn,
            buf: vec![0; 64 * 1024],
            filled: 0,
            pos: 0,
            bytes_in: 0,
            frames_in: 0,
            stats: None,
        }
    }

    /// Attaches a shared stats block updated on every read/decode.
    pub fn set_stats(&mut self, stats: Arc<ConnStats>) {
        self.stats = Some(stats);
    }

    /// Bounds how long [`read_frame`](Self::read_frame) blocks.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.conn.set_read_timeout(t)
    }

    /// Tries to parse one complete frame out of the buffered bytes.
    fn parse_buffered(&mut self) -> Result<Option<Frame>> {
        let avail = &self.buf[self.pos..self.filled];
        let mut d = codec::Dec::new(avail);
        let len = match d.varint() {
            Ok(len) => len,
            // An incomplete varint at the buffer tail: need more bytes.
            Err(codec::CodecError::Truncated) => return Ok(None),
            Err(e) => return Err(Error::Runtime(format!("frame length: {e}"))),
        };
        if len as usize > MAX_FRAME_LEN {
            return Err(Error::Runtime(format!("oversized frame ({len} bytes)")));
        }
        if (len as usize) > d.remaining() {
            return Ok(None);
        }
        let header = avail.len() - d.remaining();
        let body_start = self.pos + header;
        let body_end = body_start + len as usize;
        let t0 = self.stats.as_ref().map(|_| Instant::now());
        let frame = codec::decode_frame(&self.buf[body_start..body_end])
            .map_err(|e| Error::Runtime(format!("decode frame: {e}")))?;
        self.pos = body_end;
        self.frames_in += 1;
        if let Some(stats) = &self.stats {
            stats.frames_in.fetch_add(1, Ordering::Relaxed);
            stats.last_rx_us.store(stats.now_us(), Ordering::Relaxed);
            if let Some(t0) = t0 {
                stats
                    .decode_us
                    .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
            }
        }
        Ok(Some(frame))
    }

    /// Reads the next frame.  `Ok(None)` means the read timed out (per the
    /// connection's read timeout) with no complete frame buffered; an EOF
    /// or socket error is `Err`.
    pub fn read_frame(&mut self) -> Result<Option<Frame>> {
        loop {
            if let Some(frame) = self.parse_buffered()? {
                return Ok(Some(frame));
            }
            // Compact consumed bytes to the front before growing.
            if self.pos > 0 {
                self.buf.copy_within(self.pos..self.filled, 0);
                self.filled -= self.pos;
                self.pos = 0;
            }
            if self.filled == self.buf.len() {
                self.buf
                    .resize((self.buf.len() * 2).min(MAX_FRAME_LEN + 16), 0);
            }
            match self.conn.read(&mut self.buf[self.filled..]) {
                Ok(0) => return Err(Error::Runtime("connection closed".into())),
                Ok(n) => {
                    self.filled += n;
                    self.bytes_in += n as u64;
                    if let Some(stats) = &self.stats {
                        stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(Error::Runtime(format!("read: {e}"))),
            }
        }
    }
}

/// Batching frame writer: the wire-side half of `batch_size`/`linger`.
///
/// Tuple deliveries pushed with [`push_tuple`](Self::push_tuple) are held
/// until `batch_size` of them accumulate or `linger` elapses, then leave
/// as one `TupleBatch` frame.  Control frames sent with
/// [`send`](Self::send) flush pending tuples first, so the byte stream
/// never reorders across frame kinds.  All frame bytes go out as a single
/// vectored write of `[length-prefix, body]` from one reusable buffer.
pub struct BatchWriter {
    conn: Conn,
    items: Vec<WireTuple>,
    scratch: Vec<u8>,
    batch_size: usize,
    linger: Duration,
    oldest_item: Option<Instant>,
    /// Total payload bytes written (telemetry).
    pub bytes_out: u64,
    /// Total frames written (telemetry).
    pub frames_out: u64,
    /// Shared live counters, when someone is watching.
    stats: Option<Arc<ConnStats>>,
}

impl BatchWriter {
    /// Wraps a connection with the given batching knobs.
    pub fn new(conn: Conn, batch_size: usize, linger: Duration) -> Self {
        BatchWriter {
            conn,
            items: Vec::with_capacity(batch_size.max(1)),
            scratch: Vec::with_capacity(8 * 1024),
            batch_size: batch_size.max(1),
            linger,
            oldest_item: None,
            bytes_out: 0,
            frames_out: 0,
            stats: None,
        }
    }

    /// Attaches a shared stats block updated on every encode/write.
    pub fn set_stats(&mut self, stats: Arc<ConnStats>) {
        self.stats = Some(stats);
    }

    /// Queues one tuple delivery, flushing if the batch is now full.
    pub fn push_tuple(&mut self, item: WireTuple) -> Result<()> {
        self.items.push(item);
        if self.oldest_item.is_none() {
            self.oldest_item = Some(Instant::now());
        }
        if self.items.len() >= self.batch_size {
            self.flush_items()?;
        }
        Ok(())
    }

    /// Sends a control frame, flushing pending tuple deliveries first.
    pub fn send(&mut self, frame: &Frame) -> Result<()> {
        self.flush_items()?;
        self.write_frame_body(|buf| codec::encode_frame_body(frame, buf))
    }

    /// Flushes pending tuples if the linger deadline has passed; returns
    /// the deadline of the oldest still-pending tuple otherwise.
    pub fn poll_linger(&mut self) -> Result<Option<Instant>> {
        match self.oldest_item {
            Some(t0) if t0.elapsed() >= self.linger => {
                self.flush_items()?;
                Ok(None)
            }
            Some(t0) => Ok(Some(t0 + self.linger)),
            None => Ok(None),
        }
    }

    /// Flushes any pending tuple batch immediately.
    pub fn flush_items(&mut self) -> Result<()> {
        if self.items.is_empty() {
            self.oldest_item = None;
            return Ok(());
        }
        let t0 = self.encode_clock();
        self.scratch.clear();
        self.scratch.push(super::codec::TUPLE_BATCH_TAG);
        codec::write_varint(&mut self.scratch, self.items.len() as u64);
        for item in self.items.drain(..) {
            codec::write_tuple_item(&mut self.scratch, &item);
        }
        self.note_encode(t0);
        self.oldest_item = None;
        self.write_scratch()
    }

    fn write_frame_body(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
        let t0 = self.encode_clock();
        self.scratch.clear();
        encode(&mut self.scratch);
        self.note_encode(t0);
        self.write_scratch()
    }

    fn encode_clock(&self) -> Option<Instant> {
        self.stats.as_ref().map(|_| Instant::now())
    }

    fn note_encode(&self, t0: Option<Instant>) {
        if let (Some(stats), Some(t0)) = (&self.stats, t0) {
            stats
                .encode_us
                .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        }
    }

    /// Writes `[varint(len), scratch]` as one vectored write.
    fn write_scratch(&mut self) -> Result<()> {
        let mut prefix = Vec::with_capacity(10);
        codec::write_varint(&mut prefix, self.scratch.len() as u64);
        let total = prefix.len() + self.scratch.len();
        let t0 = self.encode_clock();
        let mut written = 0usize;
        while written < total {
            let bufs = if written < prefix.len() {
                [
                    IoSlice::new(&prefix[written..]),
                    IoSlice::new(&self.scratch),
                ]
            } else {
                [
                    IoSlice::new(&self.scratch[written - prefix.len()..]),
                    IoSlice::new(&[]),
                ]
            };
            match self.conn.write_vectored(&bufs) {
                Ok(0) => return Err(Error::Runtime("connection closed on write".into())),
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(Error::Runtime(format!("write: {e}"))),
            }
        }
        self.bytes_out += total as u64;
        self.frames_out += 1;
        if let Some(stats) = &self.stats {
            stats.bytes_out.fetch_add(total as u64, Ordering::Relaxed);
            stats.frames_out.fetch_add(1, Ordering::Relaxed);
            if let Some(t0) = t0 {
                stats
                    .write_block_us
                    .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Shuts the underlying socket down (unblocks the peer's reader).
    pub fn shutdown(&self) {
        self.conn.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Value;

    fn pair() -> (Conn, Conn) {
        let (listener, ep) = Listener::unix_temp().unwrap();
        let client = Conn::connect(&ep, Duration::from_secs(5)).unwrap();
        let server = listener.accept().unwrap().unwrap();
        ep.unlink();
        (client, server)
    }

    #[test]
    fn endpoint_env_round_trips() {
        let u = Endpoint("/tmp/x.sock".into());
        assert_eq!(u.to_env(), "unix:/tmp/x.sock");
        assert_eq!(Endpoint::from_env(&u.to_env()).unwrap(), u);
        assert!(Endpoint::from_env("tcp:127.0.0.1:9999").is_err());
        assert!(Endpoint::from_env("carrier-pigeon:coop7").is_err());
    }

    #[test]
    fn frames_survive_the_socket() {
        let (client, server) = pair();
        let mut w = BatchWriter::new(client, 4, Duration::from_millis(1));
        let mut r = FrameReader::new(server);
        r.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

        let hello = Frame::Hello {
            worker: 1,
            pid: 42,
            clock_us: 17,
            endpoint: "tcp:127.0.0.1:1".into(),
        };
        w.send(&hello).unwrap();
        for i in 0..4 {
            w.push_tuple(WireTuple {
                token: i,
                dest_task: 2,
                stream: 0,
                dedup: None,
                trace_root: Some(i + 1),
                values: vec![Value::from(i as i64)],
            })
            .unwrap();
        }
        w.send(&Frame::Shutdown).unwrap();

        assert_eq!(r.read_frame().unwrap().unwrap(), hello);
        match r.read_frame().unwrap().unwrap() {
            Frame::TupleBatch { items } => {
                assert_eq!(items.len(), 4);
                assert_eq!(items[3].token, 3);
            }
            other => panic!("expected tuple batch, got {}", other.kind()),
        }
        assert_eq!(r.read_frame().unwrap().unwrap(), Frame::Shutdown);
    }

    #[test]
    fn linger_flushes_partial_batches() {
        let (client, server) = pair();
        let mut w = BatchWriter::new(client, 64, Duration::from_millis(5));
        let mut r = FrameReader::new(server);
        r.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        w.push_tuple(WireTuple {
            token: 7,
            dest_task: 0,
            stream: 0,
            dedup: Some(9),
            trace_root: None,
            values: vec![],
        })
        .unwrap();
        // Not full: nothing on the wire until the linger deadline passes.
        std::thread::sleep(Duration::from_millis(10));
        w.poll_linger().unwrap();
        match r.read_frame().unwrap().unwrap() {
            Frame::TupleBatch { items } => assert_eq!(items[0].token, 7),
            other => panic!("expected tuple batch, got {}", other.kind()),
        }
    }

    #[test]
    fn conn_stats_track_frames_and_bytes() {
        let (client, server) = pair();
        let mut w = BatchWriter::new(client, 1, Duration::ZERO);
        let mut r = FrameReader::new(server);
        r.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let ws = ConnStats::new();
        let rs = ConnStats::new();
        w.set_stats(Arc::clone(&ws));
        r.set_stats(Arc::clone(&rs));
        assert!(rs.rx_silence_s().is_none());

        w.send(&Frame::Flush { seq: 1 }).unwrap();
        w.send(&Frame::Shutdown).unwrap();
        assert_eq!(r.read_frame().unwrap().unwrap(), Frame::Flush { seq: 1 });
        assert_eq!(r.read_frame().unwrap().unwrap(), Frame::Shutdown);

        assert_eq!(ws.frames_out.load(Ordering::Relaxed), 2);
        assert_eq!(rs.frames_in.load(Ordering::Relaxed), 2);
        let sent = ws.bytes_out.load(Ordering::Relaxed);
        assert_eq!(sent, rs.bytes_in.load(Ordering::Relaxed));
        assert!(sent > 0);
        assert!(rs.rx_silence_s().is_some());
    }

    #[test]
    fn read_timeout_returns_none() {
        let (_client, server) = pair();
        let mut r = FrameReader::new(server);
        r.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
        assert!(r.read_frame().unwrap().is_none());
    }
}

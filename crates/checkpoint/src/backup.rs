//! Backup stores: the simulated per-node disks checkpoints stream to.
//!
//! A [`BackupStore`] is the substitute for one node's local disk. Chunks
//! are written and read with an optional bandwidth throttle so the m-to-n
//! experiments (Fig. 11) exhibit real disk-parallelism effects: reading a
//! checkpoint from two stores is roughly twice as fast as from one.
//!
//! Durability hardening: every chunk is persisted inside a checksummed
//! frame (magic + CRC32 + payload) that is verified on read, on-disk
//! writes go through a write-temp-then-rename protocol so a crash mid
//! write never clobbers the previous generation, and both paths retry
//! transient I/O errors with bounded backoff. A deterministic
//! [`StoreFaultSpec`] can inject read/write errors and torn writes for
//! chaos testing.
//!
//! A chunk's payload is `varint count | (varint klen | key | varint vlen |
//! value)*`. [`ChunkWriter`] encodes it straight from stripe snapshots into
//! a buffer with the frame header reserved in front, which the store seals
//! in place and keeps; [`ChunkReader`] decodes a verified payload straight
//! into the restore shards. Neither builds an intermediate entry list.

use std::cell::Cell;
use std::collections::HashMap;
use std::fs;
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bytes::{BufMut, BytesMut};
use parking_lot::Mutex;
use sdg_common::codec::{write_varint, Codec, Reader};
use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::{EdgeId, InstanceId};
use sdg_common::time::VectorTs;
use sdg_state::entry::StateEntry;
use sdg_state::partition::{KeyLayout, PartitionDim};
use sdg_state::store::{place_entry, StateSnapshot, StateStore, StateType};

use crate::buffer::BufferedItem;

/// Identifies one chunk of one checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkKey {
    /// The checkpointed SE instance.
    pub instance: InstanceId,
    /// Checkpoint sequence number of that instance.
    pub seq: u64,
    /// Chunk index within the checkpoint.
    pub chunk: u32,
}

impl std::fmt::Display for ChunkKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-c{}-k{}", self.instance, self.seq, self.chunk)
    }
}

#[derive(Debug)]
enum Medium {
    /// Sealed frames, shared with the readers that fetched them.
    Memory(Mutex<HashMap<ChunkKey, Arc<Vec<u8>>>>),
    Disk(PathBuf),
}

/// Magic prefix of a persisted chunk frame (`b"SDGC"`).
const FRAME_MAGIC: [u8; 4] = *b"SDGC";
/// Bytes of frame overhead: 4 magic + 4 CRC32 (little-endian).
const FRAME_HEADER: usize = 8;

/// The eight slicing-by-8 lookup tables of the reflected IEEE 802.3
/// polynomial: `t[0]` is the classic bytewise table, and `t[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 (IEEE 802.3 polynomial, reflected) of `bytes`, eight bytes per
/// step with compile-time tables — no external dependency.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// A chunk on its way to a store: the payload behind a reserved frame
/// header, so [`BackupStore::write_chunk`] seals it in place and the
/// memory medium keeps the very buffer it was handed.
#[derive(Debug)]
pub struct Frame(Vec<u8>);

impl Frame {
    /// Payload bytes behind the header.
    pub fn payload_len(&self) -> usize {
        self.0.len() - FRAME_HEADER
    }
}

impl From<Vec<u8>> for Frame {
    /// Frames a bare payload, copying it once behind the header.
    fn from(payload: Vec<u8>) -> Self {
        let mut framed = Vec::with_capacity(FRAME_HEADER + payload.len());
        framed.extend_from_slice(&[0; FRAME_HEADER]);
        framed.extend_from_slice(&payload);
        Frame(framed)
    }
}

/// Fills in a frame's header: magic, then the CRC32 of the payload.
fn seal(framed: &mut [u8]) {
    let crc = crc32(&framed[FRAME_HEADER..]);
    framed[..4].copy_from_slice(&FRAME_MAGIC);
    framed[4..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
}

/// Verifies a frame in place, classifying truncation, a foreign prefix,
/// and a checksum mismatch as corruption.
fn verify_frame(key: ChunkKey, framed: &[u8]) -> SdgResult<()> {
    if framed.len() < FRAME_HEADER {
        return Err(SdgError::Recovery(format!(
            "chunk {key} corrupt: truncated frame ({} bytes)",
            framed.len()
        )));
    }
    if framed[..4] != FRAME_MAGIC {
        return Err(SdgError::Recovery(format!(
            "chunk {key} corrupt: bad frame magic"
        )));
    }
    let stored = u32::from_le_bytes([framed[4], framed[5], framed[6], framed[7]]);
    let actual = crc32(&framed[FRAME_HEADER..]);
    if stored != actual {
        return Err(SdgError::Recovery(format!(
            "chunk {key} corrupt: checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
        )));
    }
    Ok(())
}

/// A verified chunk payload read back from a store. On the memory medium
/// it shares the stored frame, so a read copies nothing.
#[derive(Clone)]
pub struct Payload(Arc<Vec<u8>>);

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0[FRAME_HEADER..]
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == other[..]
    }
}

/// Deterministic fault-injection plan for one [`BackupStore`].
///
/// Counters are per store and strictly ordinal, so a given spec produces
/// the same fault sequence on every run: `write_error_every = n` fails
/// write attempts `n, 2n, 3n, …` with a *transient* I/O error (a retry —
/// which is attempt `n+1` — succeeds), while `n = 1` fails every attempt,
/// modelling a *persistent* fault. `torn_write_every` tears the
/// corresponding successful writes: only a truncated prefix of the frame
/// is persisted, yet the call reports success — exactly a torn disk
/// write, detected later by the read-side checksum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreFaultSpec {
    /// Fail every Nth write attempt (0 = never, 1 = always/persistent).
    pub write_error_every: u64,
    /// Fail every Nth read attempt (0 = never, 1 = always/persistent).
    pub read_error_every: u64,
    /// Tear every Nth otherwise-successful write (0 = never).
    pub torn_write_every: u64,
}

impl StoreFaultSpec {
    /// `true` when the spec injects nothing.
    pub fn is_noop(&self) -> bool {
        self.write_error_every == 0 && self.read_error_every == 0 && self.torn_write_every == 0
    }
}

#[derive(Debug, Default)]
struct FaultState {
    spec: StoreFaultSpec,
    writes: AtomicU64,
    reads: AtomicU64,
    committed: AtomicU64,
}

impl FaultState {
    fn every(counter: &AtomicU64, n: u64) -> bool {
        if n == 0 {
            return false;
        }
        let tick = counter.fetch_add(1, Ordering::Relaxed) + 1;
        tick.is_multiple_of(n)
    }
}

/// Bounded retry policy for transient store I/O errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included); minimum 1.
    pub attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_backoff: Duration::from_millis(1),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            base_backoff: Duration::ZERO,
        }
    }
}

/// One backup target ("disk" of a node).
#[derive(Debug)]
pub struct BackupStore {
    medium: Medium,
    write_bps: Option<u64>,
    read_bps: Option<u64>,
    retry: RetryPolicy,
    faults: Option<FaultState>,
    retried: AtomicU64,
}

impl BackupStore {
    /// Creates an in-memory store (a RAM disk).
    pub fn in_memory() -> Self {
        BackupStore {
            medium: Medium::Memory(Mutex::new(HashMap::new())),
            write_bps: None,
            read_bps: None,
            retry: RetryPolicy::default(),
            faults: None,
            retried: AtomicU64::new(0),
        }
    }

    /// Creates a store backed by files under `dir`.
    pub fn on_disk(dir: impl Into<PathBuf>) -> SdgResult<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| SdgError::Recovery(format!("cannot create backup dir: {e}")))?;
        Ok(BackupStore {
            medium: Medium::Disk(dir),
            write_bps: None,
            read_bps: None,
            retry: RetryPolicy::default(),
            faults: None,
            retried: AtomicU64::new(0),
        })
    }

    /// Sets a simulated write/read bandwidth in bytes per second.
    pub fn with_bandwidth(mut self, write_bps: Option<u64>, read_bps: Option<u64>) -> Self {
        self.write_bps = write_bps;
        self.read_bps = read_bps;
        self
    }

    /// Installs a deterministic fault-injection plan.
    pub fn with_faults(mut self, spec: StoreFaultSpec) -> Self {
        self.faults = if spec.is_noop() {
            None
        } else {
            Some(FaultState {
                spec,
                ..FaultState::default()
            })
        };
        self
    }

    /// Number of I/O attempts that failed transiently and were retried.
    pub fn retried_ops(&self) -> u64 {
        self.retried.load(Ordering::Relaxed)
    }

    fn throttle(bps: Option<u64>, len: usize) {
        if let Some(bps) = bps {
            if bps > 0 && len > 0 {
                let secs = len as f64 / bps as f64;
                thread::sleep(Duration::from_secs_f64(secs));
            }
        }
    }

    /// Runs `op` under the store's retry policy: transient errors back
    /// off (doubling from `base_backoff`) and retry up to `attempts`
    /// times; any other error — and the last transient one — is returned.
    fn with_retries<T>(&self, mut op: impl FnMut(u32) -> SdgResult<T>) -> SdgResult<T> {
        let attempts = self.retry.attempts.max(1);
        let mut backoff = self.retry.base_backoff;
        for attempt in 1..=attempts {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempt < attempts => {
                    self.retried.fetch_add(1, Ordering::Relaxed);
                    if !backoff.is_zero() {
                        thread::sleep(backoff);
                        backoff = backoff.saturating_mul(2);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("loop returns on the last attempt")
    }

    /// Persists the sealed frame for `key`. The memory medium takes the
    /// buffer (it cannot fail, so no retry needs it again). Disk writes go
    /// to a `.tmp` sibling first and are renamed into place, so a crash mid
    /// write leaves either the old generation or the new one — never a
    /// partial file under the final name.
    fn persist(&self, key: ChunkKey, framed: &mut Vec<u8>) -> SdgResult<()> {
        match &self.medium {
            Medium::Memory(map) => {
                map.lock().insert(key, Arc::new(std::mem::take(framed)));
                Ok(())
            }
            Medium::Disk(dir) => {
                let tmp = dir.join(format!("{key}.tmp"));
                let dst = dir.join(key.to_string());
                fs::write(&tmp, &framed[..]).map_err(|e| {
                    SdgError::io_transient(format!("chunk {key} write failed: {e}"))
                })?;
                fs::rename(&tmp, &dst).map_err(|e| {
                    let _ = fs::remove_file(&tmp);
                    SdgError::io_transient(format!("chunk {key} rename failed: {e}"))
                })
            }
        }
    }

    /// Writes a chunk, applying the simulated write bandwidth. The frame
    /// is sealed in place with a CRC32 checksum of the payload; transient
    /// failures (injected or real) are retried per the store's
    /// [`RetryPolicy`].
    pub fn write_chunk(&self, key: ChunkKey, chunk: impl Into<Frame>) -> SdgResult<()> {
        let Frame(mut framed) = chunk.into();
        Self::throttle(self.write_bps, framed.len() - FRAME_HEADER);
        seal(&mut framed);
        self.with_retries(|attempt| {
            if let Some(faults) = &self.faults {
                if FaultState::every(&faults.writes, faults.spec.write_error_every) {
                    return Err(SdgError::Io {
                        transient: faults.spec.write_error_every > 1,
                        message: format!("injected write fault on chunk {key} (attempt {attempt})"),
                    });
                }
                if FaultState::every(&faults.committed, faults.spec.torn_write_every) {
                    // A torn write persists a truncated frame but still
                    // reports success to the writer.
                    let cut = framed.len() / 2;
                    return self.persist(key, &mut framed[..cut].to_vec());
                }
            }
            self.persist(key, &mut framed)
        })
    }

    /// Reads a chunk back, applying the simulated read bandwidth. The
    /// frame checksum is verified in place; a mismatch (torn or
    /// bit-flipped chunk) surfaces as a non-retryable corruption error.
    pub fn read_chunk(&self, key: ChunkKey) -> SdgResult<Payload> {
        let framed = self.with_retries(|attempt| {
            if let Some(faults) = &self.faults {
                if FaultState::every(&faults.reads, faults.spec.read_error_every) {
                    return Err(SdgError::Io {
                        transient: faults.spec.read_error_every > 1,
                        message: format!("injected read fault on chunk {key} (attempt {attempt})"),
                    });
                }
            }
            match &self.medium {
                Medium::Memory(map) => map
                    .lock()
                    .get(&key)
                    .cloned()
                    .ok_or_else(|| SdgError::Recovery(format!("chunk {key} not found"))),
                Medium::Disk(dir) => {
                    fs::read(dir.join(key.to_string()))
                        .map(Arc::new)
                        .map_err(|e| {
                            if e.kind() == std::io::ErrorKind::NotFound {
                                SdgError::Recovery(format!("chunk {key} not found"))
                            } else {
                                SdgError::io_transient(format!("chunk {key} read failed: {e}"))
                            }
                        })
                }
            }
        })?;
        verify_frame(key, &framed)?;
        let payload = Payload(framed);
        Self::throttle(self.read_bps, payload.len());
        Ok(payload)
    }

    /// Truncates a stored chunk's frame in place (chaos/test tooling):
    /// the next read fails its checksum like a torn write would.
    pub fn truncate_chunk(&self, key: ChunkKey) -> SdgResult<()> {
        self.mutate_chunk(key, |framed| framed.truncate(framed.len() / 2))
    }

    /// Flips one payload bit of a stored chunk in place (chaos/test
    /// tooling): the next read fails its checksum.
    pub fn flip_chunk_bit(&self, key: ChunkKey) -> SdgResult<()> {
        self.mutate_chunk(key, |framed| {
            let idx = framed.len() - 1;
            framed[idx] ^= 0x01;
        })
    }

    /// Deletes a stored chunk (chaos/test tooling): the next read reports
    /// it missing.
    pub fn delete_chunk(&self, key: ChunkKey) -> SdgResult<()> {
        match &self.medium {
            Medium::Memory(map) => map
                .lock()
                .remove(&key)
                .map(|_| ())
                .ok_or_else(|| SdgError::Recovery(format!("chunk {key} not found"))),
            Medium::Disk(dir) => fs::remove_file(dir.join(key.to_string()))
                .map_err(|e| SdgError::Recovery(format!("chunk {key} delete failed: {e}"))),
        }
    }

    fn mutate_chunk(&self, key: ChunkKey, f: impl FnOnce(&mut Vec<u8>)) -> SdgResult<()> {
        match &self.medium {
            Medium::Memory(map) => {
                let mut map = map.lock();
                let framed = map
                    .get_mut(&key)
                    .ok_or_else(|| SdgError::Recovery(format!("chunk {key} not found")))?;
                f(Arc::make_mut(framed));
                Ok(())
            }
            Medium::Disk(dir) => {
                let path = dir.join(key.to_string());
                let mut framed = fs::read(&path)
                    .map_err(|e| SdgError::Recovery(format!("chunk {key} read failed: {e}")))?;
                f(&mut framed);
                fs::write(&path, framed)
                    .map_err(|e| SdgError::Recovery(format!("chunk {key} write failed: {e}")))
            }
        }
    }

    /// Removes chunks of checkpoints older than `keep_seq` for `instance`.
    pub fn garbage_collect(&self, instance: InstanceId, keep_seq: u64) {
        match &self.medium {
            Medium::Memory(map) => {
                map.lock()
                    .retain(|k, _| k.instance != instance || k.seq >= keep_seq);
            }
            Medium::Disk(dir) => {
                let prefix_owner = format!("{instance}-c");
                if let Ok(entries) = fs::read_dir(dir) {
                    for entry in entries.flatten() {
                        let name = entry.file_name().to_string_lossy().into_owned();
                        if let Some(rest) = name.strip_prefix(&prefix_owner) {
                            if let Some((seq, _)) = rest.split_once("-k") {
                                if seq.parse::<u64>().is_ok_and(|s| s < keep_seq) {
                                    let _ = fs::remove_file(entry.path());
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Generation header of a checkpoint.
///
/// A restore chain is one *base* generation (every chunk that holds state
/// written) followed by delta generations that re-write only the chunks
/// dirtied since the previous completed checkpoint. Each chunk is written
/// whole, so restore composes the chain newest-wins per chunk id — no
/// tombstones are needed (a key deleted from a chunk is simply absent from
/// the chunk's newest copy, and a delta writes a dirtied chunk even when
/// it has become empty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaMeta {
    /// `true` for a base generation, which starts a chain.
    pub base: bool,
    /// Size of the chunk space (constant along a chain).
    pub chunk_space: usize,
}

/// The durable record of one completed checkpoint: where its chunks live
/// plus the metadata needed for replay-based recovery.
#[derive(Debug, Clone)]
pub struct BackupSet {
    /// Checkpointed instance.
    pub instance: InstanceId,
    /// Sequence number.
    pub seq: u64,
    /// Structure type of the checkpointed store.
    pub state_type: StateType,
    /// Cell-level vector timestamp at snapshot time (pointwise minimum
    /// across stripes; the safe watermark for trimming and replay).
    pub vector: VectorTs,
    /// Exact per-stripe vectors at snapshot time. Restore re-creates each
    /// stripe with its own vector so replayed items are deduplicated
    /// precisely (a merged vector would either double-apply or drop items).
    pub stripe_vectors: Vec<VectorTs>,
    /// For each written chunk: the index of the store holding it, and its
    /// key (whose `chunk` field is the chunk id).
    pub chunk_locations: Vec<(usize, ChunkKey)>,
    /// Whatever the caller's `capture_outputs` returned at snapshot time,
    /// held as the captured entries themselves (payloads shared by
    /// refcount, nothing encoded).
    ///
    /// Empty for every checkpoint the runtime takes: the upstream buffers
    /// that feed an instance live in the deployment's buffer registry,
    /// which survives the instance's failure, so recovery replays from the
    /// registry and never from this copy.
    pub out_buffers: Vec<(EdgeId, Vec<BufferedItem>)>,
    /// Serialised state size in bytes (all chunks written by this
    /// generation).
    pub state_bytes: usize,
    /// Generation header: base or delta, and the chunk space.
    pub delta: DeltaMeta,
}

impl BackupSet {
    /// `true` when this set can start a restore chain on its own.
    pub fn is_base(&self) -> bool {
        self.delta.base
    }
}

/// Bytes reserved in front of a chunk under construction: the frame
/// header, then one byte for the entry count, widened in place at
/// [`ChunkWriter::finish`] when the count needs a longer varint.
const CHUNK_PREFIX: usize = FRAME_HEADER + 1;

/// Encodes one generation's chunks straight from stripe snapshots.
///
/// Every wanted entry is encoded once, into the buffer of its chunk
/// ([`KeyLayout::chunk`] of the stable hash of the key it is exported
/// under — the id the dirty-chunk tracker marks), behind the reserved frame
/// header. So a delta generation's encoding cost scales with its dirty
/// fraction, and [`BackupStore::write_chunk`] seals each finished buffer in
/// place.
#[derive(Debug)]
pub struct ChunkWriter {
    /// Per chunk id: the frame under construction and its entry count,
    /// `None` when the chunk is not wanted.
    chunks: Vec<Option<(BytesMut, u64)>>,
    /// Chunks holding at least one entry, wanted or not.
    occupied: Vec<bool>,
}

impl ChunkWriter {
    /// A writer of the chunks flagged in `wanted`; the chunk space is
    /// `wanted.len()`.
    ///
    /// # Panics
    ///
    /// Panics if `wanted` is empty.
    pub fn new(wanted: &[bool]) -> Self {
        assert!(!wanted.is_empty(), "chunk count must be positive");
        ChunkWriter {
            chunks: wanted
                .iter()
                .map(|&w| w.then(|| (BytesMut::from(vec![0; CHUNK_PREFIX]), 0)))
                .collect(),
            occupied: vec![false; wanted.len()],
        }
    }

    /// Encodes every wanted entry of `snap` into its chunk. Every key is
    /// hashed either way, marking its chunk occupied, which is how the
    /// coordinator tells a generation that rewrites all of the state (a
    /// base) from one that does not.
    pub fn write(&mut self, snap: &StateSnapshot) {
        let space = self.chunks.len();
        snap.for_each_entry(|key, encode_value| {
            let id = KeyLayout::chunk(key.stable_hash(), space);
            self.occupied[id] = true;
            if let Some((buf, count)) = &mut self.chunks[id] {
                put_prefixed(buf, |buf| key.encode(buf));
                put_prefixed(buf, encode_value);
                *count += 1;
            }
        });
    }

    /// Appends the entries `other` encoded behind this writer's, chunk by
    /// chunk (both must cover the same wanted chunks).
    pub fn absorb(&mut self, other: ChunkWriter) {
        for (mine, theirs) in self.chunks.iter_mut().zip(other.chunks) {
            if let (Some((buf, count)), Some((more, n))) = (mine, theirs) {
                buf.extend_from_slice(&more[CHUNK_PREFIX..]);
                *count += n;
            }
        }
        for (mine, theirs) in self.occupied.iter_mut().zip(other.occupied) {
            *mine |= theirs;
        }
    }

    /// Chunks holding at least one entry, wanted or not.
    pub fn occupied(&self) -> &[bool] {
        &self.occupied
    }

    /// Finishes every wanted chunk, empty ones included, as `(chunk id,
    /// frame)` in id order.
    pub fn finish(self) -> Vec<(u32, Frame)> {
        self.chunks
            .into_iter()
            .enumerate()
            .filter_map(|(id, chunk)| {
                let (mut buf, count) = chunk?;
                set_varint(&mut buf, FRAME_HEADER, count);
                Some((id as u32, Frame(buf.freeze())))
            })
            .collect()
    }
}

/// Appends the bytes `body` writes, prefixed by their length: one prefix
/// byte is reserved up front and widened in place when needed.
fn put_prefixed(buf: &mut BytesMut, body: impl FnOnce(&mut BytesMut)) {
    let at = buf.len();
    buf.put_u8(0);
    body(buf);
    let len = buf.len() - at - 1;
    set_varint(buf, at, len as u64);
}

/// Writes `v` as a varint into the one byte reserved at `at`, shifting
/// everything behind it right when the varint is longer.
fn set_varint(buf: &mut BytesMut, at: usize, v: u64) {
    if v < 0x80 {
        buf[at] = v as u8;
        return;
    }
    let mut varint = BytesMut::new();
    write_varint(&mut varint, v);
    let extra = varint.len() - 1;
    let end = buf.len();
    buf.extend_from_slice(&[0; 9][..extra]);
    buf.copy_within(at + 1..end, at + 1 + extra);
    buf[at..=at + extra].copy_from_slice(&varint);
}

/// The entry count a chunk payload starts with, bounded by its length
/// (every entry takes at least two bytes).
fn entry_count(payload: &[u8]) -> SdgResult<usize> {
    let count = Reader::new(payload).read_varint()? as usize;
    if count > payload.len() {
        return Err(SdgError::Codec(format!(
            "entry count {count} exceeds input"
        )));
    }
    Ok(count)
}

/// Decodes verified chunk payloads (a restore) or exported entries (a
/// scale) straight into `n` instances of `stripes` stripes each.
///
/// Every entry is decoded once and inserted into its final shard,
/// [`KeyLayout::shard`] of the owner hash [`place_entry`] defines — the
/// instance the dispatchers route its key to, and the stripe there that
/// the item lands on — so nothing is re-split afterwards.
/// [`ChunkReader::read`] pre-sizes the tables from the chunks' entry
/// counts.
#[derive(Debug)]
pub struct ChunkReader {
    /// Instance-major: shard `i * stripes + s` is stripe `s` of instance `i`.
    shards: Vec<StateStore>,
    stripes: usize,
    dim: PartitionDim,
    bytes: usize,
}

impl ChunkReader {
    /// A reader into `n` × `stripes` empty shards of type `ty`, placing
    /// matrix cells along `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `stripes` is zero.
    pub fn new(ty: StateType, n: usize, stripes: usize, dim: PartitionDim) -> Self {
        assert!(n > 0 && stripes > 0, "shard counts must be positive");
        ChunkReader {
            shards: (0..n * stripes).map(|_| StateStore::new(ty)).collect(),
            stripes,
            dim,
            bytes: 0,
        }
    }

    /// Decodes chunk payloads into the shards, after pre-sizing the
    /// tables from the chunks' entry counts.
    ///
    /// # Errors
    ///
    /// Fails, without panicking, on a truncated or over-long payload and
    /// on an entry that does not decode into the shards' structure.
    pub fn read<P: AsRef<[u8]>>(&mut self, payloads: &[P]) -> SdgResult<()> {
        let mut entries = 0;
        for payload in payloads {
            entries += entry_count(payload.as_ref())?;
        }
        let share = entries / self.shards.len();
        for shard in &mut self.shards {
            shard.reserve(share + share / 8);
        }
        for payload in payloads {
            self.read_chunk(payload.as_ref())?;
        }
        Ok(())
    }

    /// Decodes one payload whose entry count [`entry_count`] accepted.
    fn read_chunk(&mut self, payload: &[u8]) -> SdgResult<()> {
        let mut r = Reader::new(payload);
        let count = r.read_varint()?;
        let shard_of = self.owner();
        for _ in 0..count {
            let klen = r.read_varint()? as usize;
            let key = r.read_bytes(klen)?;
            let vlen = r.read_varint()? as usize;
            let value = r.read_bytes(vlen)?;
            place_entry(&mut self.shards, self.dim, key, value, &shard_of)?;
        }
        if !r.is_empty() {
            return Err(SdgError::Codec("trailing bytes after entries".into()));
        }
        self.bytes += payload.len();
        Ok(())
    }

    /// Places the entries instance `from` exported, as [`ChunkReader::read`]
    /// places decoded ones, and returns the bytes of the entries it put on
    /// an instance other than `from`.
    ///
    /// A scale moves state this way: every instance's entries go straight
    /// into their final stripes, and what moved is counted where it lands.
    /// An entry placed in pieces — a row of a column-partitioned matrix,
    /// cell by cell — counts whole when any piece moves.
    ///
    /// # Errors
    ///
    /// Fails on an entry that does not decode into the shards' structure.
    pub fn place(&mut self, from: usize, entries: &[StateEntry]) -> SdgResult<u64> {
        let (shard_of, stripes) = (self.owner(), self.stripes);
        let mut moved = 0;
        for e in entries {
            // With one shard nothing is hashed: every entry lands on
            // instance 0.
            let away = Cell::new(from != 0 && self.shards.len() == 1);
            place_entry(&mut self.shards, self.dim, &e.key, &e.value, |h| {
                let shard = shard_of(h);
                away.set(away.get() || shard / stripes != from);
                shard
            })?;
            if away.get() {
                moved += e.size() as u64;
            }
        }
        Ok(moved)
    }

    /// The owner rule, [`KeyLayout::shard`] over this reader's shards.
    fn owner(&self) -> impl Fn(u64) -> usize {
        let stripes = self.stripes;
        let instances = self.shards.len() / stripes;
        move |h| KeyLayout::shard(h, instances, stripes)
    }

    /// Payload bytes decoded so far.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The shards, one `Vec` of stripes per instance.
    pub fn finish(self) -> Vec<Vec<StateStore>> {
        let mut shards = self.shards.into_iter();
        let instances = shards.len() / self.stripes;
        (0..instances)
            .map(|_| shards.by_ref().take(self.stripes).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdg_common::ids::TaskId;
    use sdg_common::value::{Key, Value};
    use std::time::Instant;

    fn key(seq: u64, chunk: u32) -> ChunkKey {
        ChunkKey {
            instance: InstanceId::new(TaskId(1), 0),
            seq,
            chunk,
        }
    }

    #[test]
    fn memory_store_roundtrips() {
        let store = BackupStore::in_memory();
        store.write_chunk(key(1, 0), vec![1, 2, 3]).unwrap();
        assert_eq!(store.read_chunk(key(1, 0)).unwrap(), vec![1, 2, 3]);
        assert!(store.read_chunk(key(1, 1)).is_err());
    }

    #[test]
    fn disk_store_roundtrips() {
        let dir = std::env::temp_dir().join(format!("sdg-backup-test-{}", std::process::id()));
        let store = BackupStore::on_disk(&dir).unwrap();
        store.write_chunk(key(2, 3), vec![9; 100]).unwrap();
        assert_eq!(store.read_chunk(key(2, 3)).unwrap(), vec![9; 100]);
        store.garbage_collect(InstanceId::new(TaskId(1), 0), 3);
        assert!(store.read_chunk(key(2, 3)).is_err());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn garbage_collect_keeps_recent_and_other_instances() {
        let store = BackupStore::in_memory();
        store.write_chunk(key(1, 0), vec![1]).unwrap();
        store.write_chunk(key(2, 0), vec![2]).unwrap();
        let other = ChunkKey {
            instance: InstanceId::new(TaskId(9), 1),
            seq: 1,
            chunk: 0,
        };
        store.write_chunk(other, vec![3]).unwrap();
        store.garbage_collect(InstanceId::new(TaskId(1), 0), 2);
        assert!(store.read_chunk(key(1, 0)).is_err());
        assert!(store.read_chunk(key(2, 0)).is_ok());
        assert!(store.read_chunk(other).is_ok());
    }

    #[test]
    fn throttling_slows_writes() {
        let fast = BackupStore::in_memory();
        let slow = BackupStore::in_memory().with_bandwidth(Some(100_000), None);
        let payload = vec![0u8; 10_000]; // 0.1 s at 100 kB/s.

        let t0 = Instant::now();
        fast.write_chunk(key(1, 0), payload.clone()).unwrap();
        let fast_time = t0.elapsed();

        let t0 = Instant::now();
        slow.write_chunk(key(1, 0), payload).unwrap();
        let slow_time = t0.elapsed();

        assert!(slow_time >= Duration::from_millis(80), "{slow_time:?}");
        assert!(slow_time > fast_time);
    }

    /// A snapshot of `store` taken and released at once (the store is
    /// consolidated again before returning).
    fn snapshot_of(store: &mut StateStore) -> StateSnapshot {
        let snap = store.begin_checkpoint().unwrap();
        store.consolidate().unwrap();
        snap
    }

    fn table_of(keys: std::ops::Range<i64>) -> StateStore {
        let mut s = StateStore::new(StateType::Table);
        for i in keys {
            s.as_table().unwrap().put(Key::Int(i), Value::Int(i));
        }
        s
    }

    /// The `(key, value)` byte pairs of a chunk payload, parsed
    /// independently of [`ChunkReader`].
    fn payload_entries(payload: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut r = Reader::new(payload);
        let count = r.read_varint().unwrap();
        let field = |r: &mut Reader<'_>| {
            let len = r.read_varint().unwrap() as usize;
            r.read_bytes(len).unwrap().to_vec()
        };
        let out = (0..count).map(|_| (field(&mut r), field(&mut r))).collect();
        assert!(r.is_empty(), "no trailing bytes");
        out
    }

    fn frame_entries(frame: &Frame) -> Vec<(Vec<u8>, Vec<u8>)> {
        payload_entries(&frame.0[FRAME_HEADER..])
    }

    #[test]
    fn entries_encode_decode_roundtrips() {
        // Long keys and values need multi-byte length prefixes, and more
        // than 127 entries a multi-byte count.
        let mut store = StateStore::new(StateType::Table);
        for i in 0..300i64 {
            let value = Value::str("v".repeat(i as usize % 200));
            store
                .as_table()
                .unwrap()
                .put(Key::str("k".repeat(i as usize)), value);
        }
        let mut writer = ChunkWriter::new(&[true]);
        writer.write(&snapshot_of(&mut store));
        let frames = writer.finish();
        let mut reader = ChunkReader::new(StateType::Table, 1, 1, PartitionDim::Row);
        reader.read(&[&frames[0].1 .0[FRAME_HEADER..]]).unwrap();
        let mut back = reader.finish().remove(0).remove(0);
        let mut got = back.export_entries();
        let mut want = store.export_entries();
        got.sort_by(|a, b| a.key.cmp(&b.key));
        want.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(got, want);
        assert_eq!(back.as_table().unwrap().len(), 300);
        // An empty chunk is a zero count and nothing else.
        let empty = ChunkWriter::new(&[true]).finish();
        assert_eq!(&empty[0].1 .0[FRAME_HEADER..], &[0]);
    }

    #[test]
    fn chunked_snapshot_uses_structured_key_hash() {
        let mut s = table_of(0..60);
        let mut writer = ChunkWriter::new(&[true; 8]);
        writer.write(&snapshot_of(&mut s));
        let occupied = writer.occupied().to_vec();
        let frames = writer.finish();
        assert_eq!(frames.len(), 8);
        let mut total = 0;
        for (id, frame) in &frames {
            let entries = frame_entries(frame);
            assert_eq!(occupied[*id as usize], !entries.is_empty());
            total += entries.len();
            for (key, _) in entries {
                let k: Key = sdg_common::codec::decode_from_slice(&key).unwrap();
                assert_eq!((k.stable_hash() % 8) as u32, *id);
            }
        }
        assert_eq!(total, 60);
    }

    #[test]
    fn masked_snapshot_only_fills_wanted_chunks_but_reports_every_occupied_one() {
        let mut s = table_of(0..60);
        let snap = snapshot_of(&mut s);
        let mut full = ChunkWriter::new(&[true; 8]);
        full.write(&snap);
        let all_occupied = full.occupied().to_vec();
        let full = full.finish();
        let mut wanted = [false; 8];
        wanted[2] = true;
        wanted[5] = true;
        let mut masked = ChunkWriter::new(&wanted);
        masked.write(&snap);
        assert_eq!(masked.occupied(), &all_occupied[..]);
        let masked = masked.finish();
        let ids: Vec<u32> = masked.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![2, 5]);
        for (id, frame) in &masked {
            assert_eq!(frame.0, full[*id as usize].1 .0, "chunk {id} byte-equal");
        }
    }

    #[test]
    fn matrix_and_vector_chunks_hash_their_structured_keys() {
        let mut m = StateStore::new(StateType::Matrix);
        for r in 0..20 {
            m.as_matrix().unwrap().set(r, 1, r as f64);
        }
        let mut v = StateStore::new(StateType::Vector);
        v.as_vector().unwrap().set(4 * 256, 1.0);
        for mut store in [m, v] {
            let mut writer = ChunkWriter::new(&[true; 4]);
            writer.write(&snapshot_of(&mut store));
            let mut flat = Vec::new();
            for (id, frame) in writer.finish() {
                for (key, value) in frame_entries(&frame) {
                    let k: Key = sdg_common::codec::decode_from_slice(&key).unwrap();
                    assert_eq!((k.stable_hash() % 4) as u32, id);
                    flat.push((key, value));
                }
            }
            let mut live: Vec<_> = store
                .export_entries()
                .into_iter()
                .map(|e| (e.key, e.value))
                .collect();
            live.sort();
            flat.sort();
            assert_eq!(flat, live);
        }
    }

    #[test]
    fn absorbed_writers_concatenate_their_chunks() {
        let (mut a, mut b) = (table_of(0..40), table_of(40..100));
        let mut both = ChunkWriter::new(&[true; 4]);
        both.write(&snapshot_of(&mut a));
        let mut other = ChunkWriter::new(&[true; 4]);
        other.write(&snapshot_of(&mut b));
        both.absorb(other);
        let total: usize = both
            .finish()
            .iter()
            .map(|(_, f)| frame_entries(f).len())
            .sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn reader_places_column_partitioned_cells_by_column() {
        let mut m = StateStore::new(StateType::Matrix);
        for r in 0..10 {
            for c in 0..10 {
                m.as_matrix().unwrap().set(r, c, (r * 10 + c) as f64);
            }
        }
        let mut writer = ChunkWriter::new(&[true; 2]);
        writer.write(&snapshot_of(&mut m));
        let mut reader = ChunkReader::new(StateType::Matrix, 2, 3, PartitionDim::Col);
        let frames = writer.finish();
        let payloads: Vec<&[u8]> = frames.iter().map(|(_, f)| &f.0[FRAME_HEADER..]).collect();
        reader.read(&payloads).unwrap();
        let instances = reader.finish();
        let want = m.split_by_hash(2, PartitionDim::Col).unwrap();
        for (mut stripes, want) in instances.into_iter().zip(want) {
            let want = want.split_by_hash(3, PartitionDim::Col).unwrap();
            for (got, mut want) in stripes.iter_mut().zip(want) {
                let got = got.as_matrix().unwrap();
                let want = want.as_matrix().unwrap();
                assert_eq!(got.nnz(), want.nnz());
                for r in want.row_indices() {
                    assert_eq!(got.row(r), want.row(r));
                }
            }
        }
    }

    #[test]
    fn place_moves_exactly_the_keys_that_change_owner() {
        for (from, to) in [(2usize, 3usize), (3, 2), (4, 3), (1, 2), (2, 1)] {
            let mut table = StateStore::new(StateType::Table);
            for i in 0..300i64 {
                table.as_table().unwrap().put(Key::Int(i), Value::Int(i));
            }
            let owned = table.split_by_hash(from, PartitionDim::Row).unwrap();
            let mut reader = ChunkReader::new(StateType::Table, to, 4, PartitionDim::Row);
            let (mut moved, mut want) = (0, 0);
            for (i, part) in owned.iter().enumerate() {
                let entries = part.export_entries();
                moved += reader.place(i, &entries).unwrap();
                for e in &entries {
                    let h = sdg_common::codec::decode_from_slice::<Key>(&e.key)
                        .unwrap()
                        .stable_hash();
                    if h % from as u64 != h % to as u64 {
                        want += e.size() as u64;
                    }
                }
            }
            assert_eq!(moved, want, "{from} -> {to}");
            for (instance, mut stripes) in reader.finish().into_iter().enumerate() {
                for (stripe, shard) in stripes.iter_mut().enumerate() {
                    shard.as_table().unwrap().for_each(|k, _| {
                        let h = k.stable_hash();
                        assert_eq!((h % to as u64, h % 4), (instance as u64, stripe as u64));
                    });
                }
            }
        }
    }

    #[test]
    fn place_splits_a_column_partitioned_row_cell_by_cell() {
        let mut m = StateStore::new(StateType::Matrix);
        for c in 0..20 {
            m.as_matrix().unwrap().set(7, c, c as f64 + 1.0);
        }
        let entries = m.export_entries();
        assert_eq!(entries.len(), 1, "one row, one entry");
        let mut reader = ChunkReader::new(StateType::Matrix, 3, 2, PartitionDim::Col);
        // Some cell of the row leaves instance 0, so the whole row counts.
        assert_eq!(reader.place(0, &entries).unwrap(), entries[0].size() as u64);
        let mut cells = 0;
        for (instance, mut stripes) in reader.finish().into_iter().enumerate() {
            for (stripe, shard) in stripes.iter_mut().enumerate() {
                for (col, v) in shard.as_matrix().unwrap().row(7) {
                    let h = Key::Int(col).stable_hash();
                    assert_eq!((h % 3, h % 2), (instance as u64, stripe as u64));
                    assert_eq!(v, col as f64 + 1.0);
                    cells += 1;
                }
            }
        }
        assert_eq!(cells, 20);
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise CRC32 the slicing-by-8 tables must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    mod crc_props {
        use super::{crc32, crc32_bytewise};
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn crc32_matches_bytewise_reference(
                bytes in prop::collection::vec(any::<u8>(), 0..200),
                offset in 0usize..16,
            ) {
                let from = offset.min(bytes.len());
                prop_assert_eq!(crc32(&bytes[from..]), crc32_bytewise(&bytes[from..]));
            }
        }
    }

    #[test]
    fn truncated_chunk_is_detected_on_read() {
        let store = BackupStore::in_memory();
        store.write_chunk(key(1, 0), vec![7; 64]).unwrap();
        store.truncate_chunk(key(1, 0)).unwrap();
        let err = store.read_chunk(key(1, 0)).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
    }

    #[test]
    fn bit_flipped_chunk_fails_checksum() {
        let store = BackupStore::in_memory();
        store.write_chunk(key(1, 0), vec![7; 64]).unwrap();
        store.flip_chunk_bit(key(1, 0)).unwrap();
        let err = store.read_chunk(key(1, 0)).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn disk_corruption_is_detected_and_tmp_files_never_linger() {
        let dir =
            std::env::temp_dir().join(format!("sdg-backup-corrupt-test-{}", std::process::id()));
        let store = BackupStore::on_disk(&dir).unwrap();
        store.write_chunk(key(1, 0), vec![5; 128]).unwrap();
        let tmp_left = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .any(|e| e.file_name().to_string_lossy().ends_with(".tmp"));
        assert!(!tmp_left, "write must rename its temp file into place");
        store.truncate_chunk(key(1, 0)).unwrap();
        assert!(store.read_chunk(key(1, 0)).is_err());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn transient_faults_are_retried_away() {
        // Every 2nd write attempt fails; the default 3-attempt retry
        // policy absorbs each failure.
        let store = BackupStore::in_memory().with_faults(StoreFaultSpec {
            write_error_every: 2,
            read_error_every: 2,
            ..Default::default()
        });
        for i in 0..8 {
            store.write_chunk(key(1, i), vec![i as u8; 16]).unwrap();
        }
        for i in 0..8 {
            assert_eq!(store.read_chunk(key(1, i)).unwrap(), vec![i as u8; 16]);
        }
        assert!(store.retried_ops() > 0);
    }

    #[test]
    fn persistent_faults_exhaust_retries() {
        let store = BackupStore::in_memory().with_faults(StoreFaultSpec {
            write_error_every: 1,
            ..Default::default()
        });
        let err = store.write_chunk(key(1, 0), vec![1]).unwrap_err();
        assert!(!err.is_transient());
        assert!(err.to_string().contains("injected write fault"), "{err}");
        assert_eq!(store.retried_ops(), 0, "persistent faults are not retried");
    }

    #[test]
    fn torn_writes_report_success_but_fail_the_read_checksum() {
        let store = BackupStore::in_memory().with_faults(StoreFaultSpec {
            torn_write_every: 2,
            ..Default::default()
        });
        store.write_chunk(key(1, 0), vec![3; 100]).unwrap();
        store.write_chunk(key(1, 1), vec![4; 100]).unwrap(); // torn
        assert_eq!(store.read_chunk(key(1, 0)).unwrap(), vec![3; 100]);
        let err = store.read_chunk(key(1, 1)).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
    }

    #[test]
    fn corrupted_chunks_error_not_panic() {
        let mut s = table_of(0..3);
        let mut writer = ChunkWriter::new(&[true]);
        writer.write(&snapshot_of(&mut s));
        let frame = writer.finish().remove(0).1;
        let bytes = &frame.0[FRAME_HEADER..];
        let read = |payload: &[u8]| {
            ChunkReader::new(StateType::Table, 2, 2, PartitionDim::Row).read(&[payload])
        };
        assert!(read(bytes).is_ok());
        for cut in 0..bytes.len() {
            assert!(read(&bytes[..cut]).is_err());
        }
        let mut extended = bytes.to_vec();
        extended.push(0);
        assert!(read(&extended).is_err());
        // A matrix reader rejects table entries.
        let mut matrix = ChunkReader::new(StateType::Matrix, 1, 1, PartitionDim::Row);
        assert!(matrix.read(&[bytes]).is_err());
    }
}

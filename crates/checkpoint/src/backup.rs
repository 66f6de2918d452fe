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

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

use bytes::BytesMut;
use parking_lot::Mutex;
use sdg_common::codec::{write_varint, Reader};
use sdg_common::error::{SdgError, SdgResult};
use sdg_common::ids::{EdgeId, InstanceId};
use sdg_common::time::VectorTs;
use sdg_state::entry::StateEntry;
use sdg_state::store::StateType;

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
    Memory(Mutex<HashMap<ChunkKey, Vec<u8>>>),
    Disk(PathBuf),
}

/// Magic prefix of a persisted chunk frame (`b"SDGC"`).
const FRAME_MAGIC: [u8; 4] = *b"SDGC";
/// Bytes of frame overhead: 4 magic + 4 CRC32 (little-endian).
const FRAME_HEADER: usize = 8;

/// CRC32 (IEEE 802.3 polynomial, reflected) of `bytes`, computed with a
/// compile-time table — no external dependency.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
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
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Wraps a chunk payload in the persisted frame: magic, CRC32 of the
/// payload, payload.
fn frame_chunk(payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(FRAME_HEADER + payload.len());
    framed.extend_from_slice(&FRAME_MAGIC);
    framed.extend_from_slice(&crc32(payload).to_le_bytes());
    framed.extend_from_slice(payload);
    framed
}

/// Verifies and strips the frame, classifying truncation, a foreign
/// prefix, and a checksum mismatch as corruption.
fn unframe_chunk(key: ChunkKey, framed: &[u8]) -> SdgResult<Vec<u8>> {
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
    let payload = &framed[FRAME_HEADER..];
    let actual = crc32(payload);
    if stored != actual {
        return Err(SdgError::Recovery(format!(
            "chunk {key} corrupt: checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
        )));
    }
    Ok(payload.to_vec())
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

    /// Persists `framed` bytes for `key`. Disk writes go to a `.tmp`
    /// sibling first and are renamed into place, so a crash mid write
    /// leaves either the old generation or the new one — never a partial
    /// file under the final name.
    fn persist(&self, key: ChunkKey, framed: Vec<u8>) -> SdgResult<()> {
        match &self.medium {
            Medium::Memory(map) => {
                map.lock().insert(key, framed);
                Ok(())
            }
            Medium::Disk(dir) => {
                let tmp = dir.join(format!("{key}.tmp"));
                let dst = dir.join(key.to_string());
                fs::write(&tmp, framed).map_err(|e| {
                    SdgError::io_transient(format!("chunk {key} write failed: {e}"))
                })?;
                fs::rename(&tmp, &dst).map_err(|e| {
                    let _ = fs::remove_file(&tmp);
                    SdgError::io_transient(format!("chunk {key} rename failed: {e}"))
                })
            }
        }
    }

    /// Writes a chunk, applying the simulated write bandwidth. The
    /// payload is framed with a CRC32 checksum; transient failures
    /// (injected or real) are retried per the store's [`RetryPolicy`].
    pub fn write_chunk(&self, key: ChunkKey, bytes: Vec<u8>) -> SdgResult<()> {
        Self::throttle(self.write_bps, bytes.len());
        let framed = frame_chunk(&bytes);
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
                    return self.persist(key, framed[..cut].to_vec());
                }
            }
            self.persist(key, framed.clone())
        })
    }

    /// Reads a chunk back, applying the simulated read bandwidth. The
    /// frame checksum is verified; a mismatch (torn or bit-flipped
    /// chunk) surfaces as a non-retryable corruption error.
    pub fn read_chunk(&self, key: ChunkKey) -> SdgResult<Vec<u8>> {
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
                Medium::Disk(dir) => fs::read(dir.join(key.to_string())).map_err(|e| {
                    if e.kind() == std::io::ErrorKind::NotFound {
                        SdgError::Recovery(format!("chunk {key} not found"))
                    } else {
                        SdgError::io_transient(format!("chunk {key} read failed: {e}"))
                    }
                }),
            }
        })?;
        let payload = unframe_chunk(key, &framed)?;
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
                f(framed);
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
    /// always sealed to [`BufferedPayload::Encoded`] wire bytes by the
    /// coordinator's persist phase.
    ///
    /// Empty for every checkpoint the runtime takes: the upstream buffers
    /// that feed an instance live in the deployment's buffer registry,
    /// which survives the instance's failure, so recovery replays from the
    /// registry and never from this copy.
    ///
    /// [`BufferedPayload::Encoded`]: crate::buffer::BufferedPayload::Encoded
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

/// Encodes a chunk of state entries.
pub fn encode_entries(entries: &[StateEntry]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    write_varint(&mut buf, entries.len() as u64);
    for e in entries {
        write_varint(&mut buf, e.key.len() as u64);
        buf.extend_from_slice(&e.key);
        write_varint(&mut buf, e.value.len() as u64);
        buf.extend_from_slice(&e.value);
    }
    buf.to_vec()
}

/// Decodes a chunk of state entries.
pub fn decode_entries(bytes: &[u8]) -> SdgResult<Vec<StateEntry>> {
    let mut r = Reader::new(bytes);
    let count = r.read_varint()? as usize;
    if count > bytes.len() {
        return Err(SdgError::Codec(format!(
            "entry count {count} exceeds input"
        )));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let klen = r.read_varint()? as usize;
        let key = r.read_bytes(klen)?.to_vec();
        let vlen = r.read_varint()? as usize;
        let value = r.read_bytes(vlen)?.to_vec();
        out.push(StateEntry::new(key, value));
    }
    if !r.is_empty() {
        return Err(SdgError::Codec("trailing bytes after entries".into()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdg_common::ids::TaskId;
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

    #[test]
    fn entries_encode_decode_roundtrips() {
        let entries: Vec<StateEntry> = (0..50u8)
            .map(|i| StateEntry::new(vec![i], vec![i; i as usize % 7]))
            .collect();
        let bytes = encode_entries(&entries);
        let back = decode_entries(&bytes).unwrap();
        assert_eq!(back, entries);
        assert_eq!(decode_entries(&encode_entries(&[])).unwrap(), vec![]);
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
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
        let entries = vec![StateEntry::new(vec![1, 2], vec![3])];
        let bytes = encode_entries(&entries);
        for cut in 0..bytes.len() {
            assert!(decode_entries(&bytes[..cut]).is_err());
        }
        let mut extended = bytes;
        extended.push(0);
        assert!(decode_entries(&extended).is_err());
    }
}

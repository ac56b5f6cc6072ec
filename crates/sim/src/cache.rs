//! Scenario-hash result cache: persisted per-cell report rows keyed by
//! a stable hash of everything that could change the row's bytes.
//!
//! A cache key is the SHA-256 of a canonical binary description of the
//! work: a code-version salt, the engine tag, the engine's
//! configuration (evaluator, wake policy, PV sizing, replication plan,
//! search space — whichever apply) and the cell's full parameter
//! fingerprint. Every `f64` contributes its exact bit pattern (8
//! little-endian bytes), every integer 8 bytes, every text its length
//! and bytes, and every variable-length list its count first. Each
//! engine writes its fields in a fixed order, and a field group present
//! for only some configurations always follows the value that selects
//! it, so distinct inputs never encode to the same bytes. Identical
//! inputs always map to the same key; perturbing any single axis value,
//! seed, policy or threshold changes the keys of exactly the affected
//! cells, so a dirty re-run recomputes only those.
//!
//! Each entry is one file under `root/<key[..2]>/<key>.entry`:
//!
//! ```text
//! corridor-result-cache v2\n
//! <csv_len> <json_len> <sha256 of csv, hex> <sha256 of json, hex>\n
//! <csv row bytes><json row bytes>
//! ```
//!
//! The payload carries the cell's row in *both* formats, so one
//! evaluation warms the CSV and JSON streams alike. Entries are written
//! to a temporary file and renamed into place (atomic on POSIX); a
//! failed write or rename removes its temporary file. A hit checks that
//! the two lengths add up to the payload exactly, then checks the
//! rendering it serves against that rendering's stored SHA-256, hashing
//! it at most once per `ResultCache`: each cache remembers the exact
//! bytes of up to 1024 entry files whose checks passed, with the formats
//! that passed, and serves a rendering unhashed only when the file it
//! reads now equals, byte for byte, bytes that passed that format's
//! check. A store remembers the bytes it wrote, whose checksums it has
//! just computed. Every byte served is verified, and no byte that is not
//! served is hashed. A corrupt, truncated or foreign entry (entries of
//! the older `v1` layout included) is a miss, recomputed and rewritten,
//! never served.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use corridor_core::hash::sha256_hex;
use corridor_core::sink::RowFormat;

use crate::cell::POWER_PROFILE;
use crate::ScenarioCell;

/// Code-version salt baked into every key: bump the suffix whenever row
/// rendering or evaluation semantics change, so stale caches from older
/// builds can never be served.
const CACHE_SALT: &str = concat!("corridor-sim-", env!("CARGO_PKG_VERSION"), "-rows-v1");

const ENTRY_MAGIC: &str = "corridor-result-cache v2";

/// Verified entry files a cache remembers. An optimize entry, the
/// longest a served engine writes, is about 2.7 KB, so a full memo holds
/// about 3 MB; no entry longer than `VERIFIED_ENTRY_MAX` is remembered,
/// so it never holds more than 16 MiB of entry bytes.
const VERIFIED_CAPACITY: usize = 1024;

/// Longest entry file a cache remembers as verified: a row renders in
/// at most about 2 KB, so an entry holding both renderings stays far
/// below it. A longer one is still served, hashed on every hit.
const VERIFIED_ENTRY_MAX: usize = 16 * 1024;

/// The exact bytes of one entry file and the formats whose SHA-256
/// check those bytes passed, as a mask of [`format_bit`]s.
struct Verified {
    entry: Vec<u8>,
    formats: u8,
}

/// A format's bit in [`Verified::formats`].
fn format_bit(format: RowFormat) -> u8 {
    match format {
        RowFormat::Csv => 1,
        RowFormat::Json => 2,
    }
}

/// Both formats' bits: a store computed both checksums itself.
const BOTH_FORMATS: u8 = 3;

/// A directory of persisted result rows, shared by the streaming
/// engines.
///
/// # Examples
///
/// ```
/// use corridor_core::sink::{RowFormat, StringSink};
/// use corridor_sim::{ResultCache, ScenarioGrid, SweepEngine};
///
/// let dir = std::env::temp_dir().join("corridor-cache-doc");
/// let cache = ResultCache::open(&dir).unwrap();
/// let engine = SweepEngine::new().workers(1).pv_sizing(false);
/// let grid = ScenarioGrid::new().trains_per_hour(vec![4.0, 8.0]);
///
/// let mut cold = StringSink::default();
/// engine.stream_with(&grid, RowFormat::Csv, &mut cold, Some(&cache)).unwrap();
///
/// let mut warm = StringSink::default();
/// let summary = engine.stream_with(&grid, RowFormat::Csv, &mut warm, Some(&cache)).unwrap();
/// assert_eq!(warm.into_string(), cold.into_string());
/// assert_eq!(summary.cache_hits, 2); // the warm run computed nothing
/// # let _ = std::fs::remove_dir_all(&dir);
/// ```
pub struct ResultCache {
    root: PathBuf,
    temp_seq: AtomicU64,
    /// Entry files whose checks passed, by key, at most
    /// `VERIFIED_CAPACITY` of them; a new key beyond that evicts the
    /// smallest key.
    verified: Mutex<BTreeMap<String, Verified>>,
    /// Renderings `load` has hashed.
    hashed: AtomicU64,
}

impl fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultCache")
            .field("root", &self.root)
            .finish_non_exhaustive()
    }
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the error of creating the root directory.
    pub fn open<P: AsRef<Path>>(dir: P) -> io::Result<Self> {
        let root = dir.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(ResultCache {
            root,
            temp_seq: AtomicU64::new(0),
            verified: Mutex::default(),
            hashed: AtomicU64::new(0),
        })
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.root.join(&key[..2]).join(format!("{key}.entry"))
    }

    /// Loads the `format` rendering stored under `key`, or `None` on a
    /// miss — a missing file, a foreign or truncated entry, or a
    /// rendering whose checksum no longer matches (silent corruption
    /// must recompute, never propagate). The rendering is hashed unless
    /// the file's bytes equal bytes that passed this format's check
    /// before.
    pub(crate) fn load(&self, key: &str, format: RowFormat) -> Option<String> {
        let bytes = fs::read(self.entry_path(key)).ok()?;
        let (row, checksum) = rendering(&bytes, format)?;
        let known = self.verified_before(key, &bytes, format);
        if !known {
            self.hashed.fetch_add(1, Ordering::Relaxed);
            if sha256_hex(row) != checksum {
                return None;
            }
        }
        let served = String::from_utf8(row.to_vec()).ok()?;
        if !known {
            self.remember(key, bytes, format_bit(format));
        }
        Some(served)
    }

    /// Whether `entry` equals, byte for byte, the remembered bytes of
    /// `key` whose `format` check passed.
    fn verified_before(&self, key: &str, entry: &[u8], format: RowFormat) -> bool {
        self.verified
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .is_some_and(|known| known.formats & format_bit(format) != 0 && known.entry == entry)
    }

    /// Records that `entry`, the bytes of `key`'s file, passed the
    /// checks of `formats`: added to what those same bytes passed
    /// before, or replacing the key's other bytes.
    fn remember(&self, key: &str, entry: Vec<u8>, formats: u8) {
        if entry.len() > VERIFIED_ENTRY_MAX {
            return;
        }
        let mut verified = self.verified.lock().unwrap_or_else(PoisonError::into_inner);
        match verified.get_mut(key) {
            Some(known) if known.entry == entry => known.formats |= formats,
            Some(known) => *known = Verified { entry, formats },
            None => {
                if verified.len() >= VERIFIED_CAPACITY {
                    verified.pop_first();
                }
                verified.insert(key.to_owned(), Verified { entry, formats });
            }
        }
    }

    /// Persists a cell's `csv` and `json` renderings under `key`,
    /// best-effort: the cache is an optimization, so a full disk or
    /// permission error must not abort a sweep — the next run simply
    /// misses again.
    pub(crate) fn store(&self, key: &str, csv: &str, json: &str) {
        let _ = self.try_store(key, csv, json);
    }

    fn try_store(&self, key: &str, csv: &str, json: &str) -> io::Result<()> {
        let path = self.entry_path(key);
        let dir = path
            .parent()
            .ok_or_else(|| io::Error::other("cache entry path has no parent directory"))?;
        fs::create_dir_all(dir)?;
        let header = format!(
            "{ENTRY_MAGIC}\n{} {} {} {}\n",
            csv.len(),
            json.len(),
            sha256_hex(csv.as_bytes()),
            sha256_hex(json.as_bytes())
        );
        let mut entry = Vec::with_capacity(header.len() + csv.len() + json.len());
        entry.extend_from_slice(header.as_bytes());
        entry.extend_from_slice(csv.as_bytes());
        entry.extend_from_slice(json.as_bytes());
        // temp + rename: readers only ever see complete entries
        let temp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.temp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let written = fs::write(&temp, &entry).and_then(|()| fs::rename(&temp, &path));
        if written.is_err() {
            let _ = fs::remove_file(&temp);
        }
        written?;
        self.remember(key, entry, BOTH_FORMATS);
        Ok(())
    }
}

/// The `format` rendering of the entry file `bytes` and its stored
/// checksum, if the entry is well-formed: the magic line, then a header
/// whose two lengths add up to the payload exactly.
fn rendering(bytes: &[u8], format: RowFormat) -> Option<(&[u8], &str)> {
    let (magic, rest) = split_line(bytes)?;
    if magic != ENTRY_MAGIC.as_bytes() {
        return None;
    }
    let (header, payload) = split_line(rest)?;
    let mut fields = core::str::from_utf8(header).ok()?.split(' ');
    let csv_len: usize = fields.next()?.parse().ok()?;
    let json_len: usize = fields.next()?.parse().ok()?;
    let (csv_sum, json_sum) = (fields.next()?, fields.next()?);
    if fields.next().is_some() || csv_len.checked_add(json_len)? != payload.len() {
        return None;
    }
    let (csv, json) = payload.split_at(csv_len);
    Some(match format {
        RowFormat::Csv => (csv, csv_sum),
        RowFormat::Json => (json, json_sum),
    })
}

fn split_line(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let at = bytes.iter().position(|&b| b == b'\n')?;
    Some((&bytes[..at], &bytes[at + 1..]))
}

/// Builds canonical binary keys field by field and hashes them. Each
/// `f64` is its 8 little-endian bit bytes, each integer 8 bytes and
/// each text its length then its bytes; a caller writing a
/// variable-length list writes its count first with [`KeyBuilder::int`].
pub(crate) struct KeyBuilder {
    raw: Vec<u8>,
}

impl KeyBuilder {
    /// Starts a key for one engine's work unit.
    pub(crate) fn new(engine: &str) -> Self {
        let mut key = KeyBuilder {
            raw: Vec::with_capacity(256),
        };
        key.text(CACHE_SALT).text(engine);
        key
    }

    pub(crate) fn text(&mut self, value: &str) -> &mut Self {
        // length-prefix free-form text so adjacent fields cannot collide
        self.int(value.len() as u64);
        self.raw.extend_from_slice(value.as_bytes());
        self
    }

    pub(crate) fn int(&mut self, value: u64) -> &mut Self {
        self.raw.extend_from_slice(&value.to_le_bytes());
        self
    }

    pub(crate) fn f64(&mut self, value: f64) -> &mut Self {
        self.int(value.to_bits())
    }

    /// Appends the cell's full fingerprint: grid position, every axis
    /// value, the power models and the climate. Locations are
    /// fingerprinted by name — the built-in climates have distinct
    /// names, and custom ones must too for caching to be sound.
    pub(crate) fn cell(&mut self, cell: &ScenarioCell) -> &mut Self {
        let params = cell.params();
        let lp = params.lp_node();
        let hp = params.hp_mast();
        self.int(cell.index() as u64)
            .f64(cell.trains_per_hour())
            .f64(cell.service_window_h())
            .f64(cell.train_speed_kmh())
            .f64(cell.train_length_m())
            .f64(cell.lp_spacing_m())
            .f64(cell.conventional_isd_m())
            .text(POWER_PROFILE)
            .f64(lp.p_max().value())
            .f64(lp.delta_p())
            .f64(lp.p_sleep().value())
            .f64(hp.p_max().value())
            .f64(hp.delta_p())
            .f64(hp.p_sleep().value())
            .text(cell.location().name())
            .int(cell.nodes() as u64)
            .f64(cell.isd().value())
    }

    /// Hashes the canonical bytes into the entry key.
    pub(crate) fn finish(&self) -> String {
        sha256_hex(&self.raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corridor_core::ScenarioParams;
    use corridor_solar::climate;
    use corridor_units::Meters;
    use proptest::prelude::*;

    const CSV: &str = "1,2,3\n";
    const JSON: &str = "  {\"cell\": 1}";

    fn temp_cache(tag: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!("corridor-cache-test-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        ResultCache::open(dir).unwrap()
    }

    fn loads(cache: &ResultCache, key: &str) -> (Option<String>, Option<String>) {
        (
            cache.load(key, RowFormat::Csv),
            cache.load(key, RowFormat::Json),
        )
    }

    fn stored(csv: &str, json: &str) -> (Option<String>, Option<String>) {
        (Some(csv.to_owned()), Some(json.to_owned()))
    }

    #[test]
    fn store_then_load_roundtrips() {
        let cache = temp_cache("roundtrip");
        let key = sha256_hex(b"some-key");
        assert_eq!(loads(&cache, &key), (None, None));
        cache.store(&key, CSV, JSON);
        assert_eq!(loads(&cache, &key), stored(CSV, JSON));
        let _ = fs::remove_dir_all(&cache.root);
    }

    #[test]
    fn corrupt_and_truncated_entries_miss() {
        let cache = temp_cache("corrupt");
        let key = sha256_hex(b"entry");
        cache.store(&key, CSV, JSON);
        let path = cache.entry_path(&key);

        // flip a JSON byte → the JSON checksum fails; the CSV rendering
        // is still intact and verified on its own
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(loads(&cache, &key), (Some(CSV.to_owned()), None));

        // truncate mid-header → structurally invalid
        fs::write(&path, &fs::read(&path).unwrap()[..30]).unwrap();
        assert_eq!(loads(&cache, &key), (None, None));

        // wrong magic → foreign file, never parsed further
        fs::write(&path, b"not-a-cache-entry\nwhatever\npayload").unwrap();
        assert_eq!(loads(&cache, &key), (None, None));

        // a fresh store heals the slot
        cache.store(&key, CSV, JSON);
        assert_eq!(loads(&cache, &key), stored(CSV, JSON));
        let _ = fs::remove_dir_all(&cache.root);
    }

    /// An entry in the `v1` layout: one checksum over both renderings
    /// joined by an ASCII unit separator.
    fn v1_entry(csv: &str, json: &str) -> Vec<u8> {
        let payload = format!("{csv}\x1f{json}");
        format!(
            "corridor-result-cache v1\n{}\n{payload}",
            sha256_hex(payload.as_bytes())
        )
        .into_bytes()
    }

    #[test]
    fn a_v1_entry_misses_and_the_next_store_overwrites_it() {
        let cache = temp_cache("v1");
        let key = sha256_hex(b"v1");
        cache.store(&key, CSV, JSON);
        let path = cache.entry_path(&key);
        fs::write(&path, v1_entry(CSV, JSON)).unwrap();
        assert_eq!(loads(&cache, &key), (None, None));

        cache.store(&key, CSV, JSON);
        assert!(fs::read(&path)
            .unwrap()
            .starts_with(b"corridor-result-cache v2\n"));
        assert_eq!(loads(&cache, &key), stored(CSV, JSON));
        let _ = fs::remove_dir_all(&cache.root);
    }

    #[test]
    fn payload_may_contain_newlines() {
        // optimizer CSV chunks are multi-line; the entry format must
        // treat everything after the header line as payload
        let cache = temp_cache("multiline");
        let key = sha256_hex(b"multiline");
        let (csv, json) = ("a,b\nc,d\ne,f\n", "  {\"x\": [1,\n2]}");
        cache.store(&key, csv, json);
        assert_eq!(loads(&cache, &key), stored(csv, json));
        let _ = fs::remove_dir_all(&cache.root);
    }

    #[test]
    fn a_failed_store_leaves_no_temp_file() {
        let cache = temp_cache("squat");
        let key = sha256_hex(b"squat");
        let path = cache.entry_path(&key);
        // a directory squatting on the entry path fails the rename
        fs::create_dir_all(&path).unwrap();
        cache.store(&key, CSV, JSON);
        let shard = path.parent().unwrap();
        let left: Vec<_> = fs::read_dir(shard)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .collect();
        assert_eq!(left, vec![path], "the store left files behind");
        assert_eq!(loads(&cache, &key), (None, None));
        let _ = fs::remove_dir_all(&cache.root);
    }

    fn hashed(cache: &ResultCache) -> u64 {
        cache.hashed.load(Ordering::Relaxed)
    }

    #[test]
    fn unchanged_bytes_are_hashed_once_per_cache_and_format() {
        let writer = temp_cache("hashed");
        let key = sha256_hex(b"hashed");
        writer.store(&key, CSV, JSON);
        // the store computed both checksums itself
        assert_eq!(loads(&writer, &key), stored(CSV, JSON));
        assert_eq!(hashed(&writer), 0);

        let reader = ResultCache::open(&writer.root).unwrap();
        let csv = || reader.load(&key, RowFormat::Csv);
        let json = || reader.load(&key, RowFormat::Json);
        assert_eq!(csv().as_deref(), Some(CSV));
        assert_eq!(hashed(&reader), 1);
        assert_eq!(csv().as_deref(), Some(CSV));
        assert_eq!(hashed(&reader), 1, "an unchanged entry was hashed again");
        assert_eq!(json().as_deref(), Some(JSON));
        assert_eq!(hashed(&reader), 2, "the other format was not hashed");
        assert_eq!(loads(&reader, &key), stored(CSV, JSON));
        assert_eq!(hashed(&reader), 2);

        // a changed stored checksum, the renderings intact, is hashed
        // again and misses
        let path = writer.entry_path(&key);
        let intact = fs::read(&path).unwrap();
        let mut bytes = intact.clone();
        let sum = sha256_hex(CSV.as_bytes());
        let at = bytes
            .windows(sum.len())
            .position(|w| w == sum.as_bytes())
            .unwrap();
        bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
        fs::write(&path, &bytes).unwrap();
        assert_eq!(loads(&reader, &key), (None, Some(JSON.to_owned())));
        assert_eq!(hashed(&reader), 4);

        // and a rendering that never passed misses every time, however
        // often its file is read
        let mut bytes = intact;
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(csv().as_deref(), Some(CSV));
        assert_eq!(hashed(&reader), 5);
        assert_eq!(json(), None);
        assert_eq!(json(), None);
        assert_eq!(hashed(&reader), 7);
        assert_eq!(csv().as_deref(), Some(CSV));
        assert_eq!(hashed(&reader), 7);
        let _ = fs::remove_dir_all(&writer.root);
    }

    #[test]
    fn the_memo_never_holds_more_than_its_capacity() {
        let cache = temp_cache("capacity");
        let keys: Vec<String> = (0..VERIFIED_CAPACITY + 8)
            .map(|i| sha256_hex(&i.to_le_bytes()))
            .collect();
        let held = || cache.verified.lock().unwrap().len();
        for key in &keys {
            cache.store(key, CSV, JSON);
            assert!(held() <= VERIFIED_CAPACITY);
        }
        assert_eq!(held(), VERIFIED_CAPACITY);
        // evicted keys are hashed and served again, still bounded
        for key in &keys {
            assert_eq!(loads(&cache, key), stored(CSV, JSON));
            assert!(held() <= VERIFIED_CAPACITY);
        }
        assert!(hashed(&cache) >= 16, "no key was evicted");
        let _ = fs::remove_dir_all(&cache.root);
    }

    #[test]
    fn key_builder_separates_fields_and_bits() {
        let base = KeyBuilder::new("sweep").finish();
        assert_ne!(base, KeyBuilder::new("mc").finish());
        // adjacent text fields cannot collide thanks to length prefixes
        let mut a = KeyBuilder::new("sweep");
        a.text("ab").text("c");
        let mut b = KeyBuilder::new("sweep");
        b.text("a").text("bc");
        assert_ne!(a.finish(), b.finish());
        // f64 keys are bit-exact: 0.1 + 0.2 != 0.3
        let mut x = KeyBuilder::new("sweep");
        x.f64(0.1 + 0.2);
        let mut y = KeyBuilder::new("sweep");
        y.f64(0.3);
        assert_ne!(x.finish(), y.finish());
    }

    #[test]
    fn cell_fingerprint_tracks_every_axis() {
        let cell = |isd: f64| {
            ScenarioCell::new(
                0,
                ScenarioParams::paper_default(),
                climate::berlin(),
                10,
                Meters::new(isd),
            )
        };
        let key_of = |c: &ScenarioCell| {
            let mut k = KeyBuilder::new("sweep");
            k.cell(c);
            k.finish()
        };
        assert_eq!(key_of(&cell(2650.0)), key_of(&cell(2650.0)));
        assert_ne!(key_of(&cell(2650.0)), key_of(&cell(2600.0)));
    }

    /// Text of printable ASCII and newlines, as rows are.
    fn row_text() -> impl Strategy<Value = String> {
        prop::collection::vec(0u8..=96, 0..48).prop_map(|codes| {
            codes
                .into_iter()
                .map(|c| if c == 96 { '\n' } else { char::from(b' ' + c) })
                .collect()
        })
    }

    /// The entry storing `csv` and `json`, damaged by mutation `kind`,
    /// which draws its positions and bytes from `noise`.
    fn mutate(entry: &[u8], csv: &str, json: &str, kind: u8, noise: &[u8]) -> Vec<u8> {
        let pick = |i: usize, len: usize| noise.get(i).map_or(0, |&b| usize::from(b)) % len.max(1);
        let sums = || (sha256_hex(csv.as_bytes()), sha256_hex(json.as_bytes()));
        let with_header = |header: String| {
            let mut out = format!("{ENTRY_MAGIC}\n{header}\n").into_bytes();
            out.extend_from_slice(csv.as_bytes());
            out.extend_from_slice(json.as_bytes());
            out
        };
        let payload_at = entry.len() - csv.len() - json.len();
        let mut out = entry.to_vec();
        match kind {
            // random bytes, bare or after a valid magic line
            0 => out = noise.to_vec(),
            1 => {
                out = format!("{ENTRY_MAGIC}\n").into_bytes();
                out.extend_from_slice(noise);
            }
            // truncation anywhere
            2 => out.truncate(pick(0, 256) * entry.len() / 256),
            // a flipped byte in the CSV rendering, the JSON rendering,
            // or anywhere
            3 | 4 => {
                let (start, len) = if kind == 3 {
                    (payload_at, csv.len())
                } else {
                    (payload_at + csv.len(), json.len())
                };
                if len > 0 {
                    out[start + pick(0, len)] ^= 1 << pick(1, 8);
                }
            }
            5 => out[pick(0, 256) * entry.len() / 256] ^= 1 << pick(1, 8),
            // header lengths near usize::MAX
            6 => {
                let (c, j) = sums();
                let near = usize::MAX - pick(0, 4);
                let lens = match pick(1, 3) {
                    0 => format!("{near} {}", json.len()),
                    1 => format!("{} {near}", csv.len()),
                    _ => format!("{near} {near}"),
                };
                out = with_header(format!("{lens} {c} {j}"));
            }
            // non-numeric lengths
            7 => {
                let (c, j) = sums();
                let word = ["x", "", "-1", "1e3", " ", "0x10"][pick(0, 6)];
                out = with_header(if pick(1, 2) == 0 {
                    format!("{word} {} {c} {j}", json.len())
                } else {
                    format!("{} {word} {c} {j}", csv.len())
                });
            }
            // a missing or an extra header field
            8 => {
                let (c, j) = sums();
                let mut fields = vec![csv.len().to_string(), json.len().to_string(), c, j];
                fields.remove(pick(0, 4));
                out = with_header(fields.join(" "));
            }
            9 => {
                let (c, j) = sums();
                out = with_header(format!("{} {} {c} {j} 0", csv.len(), json.len()));
            }
            // one digit of the CSV or the JSON checksum changed, the
            // renderings intact
            10 | 11 => {
                let (mut c, mut j) = sums();
                let sum = if kind == 10 { &mut c } else { &mut j };
                let at = pick(0, sum.len());
                let digit = if sum.as_bytes()[at] == b'0' { "1" } else { "0" };
                sum.replace_range(at..=at, digit);
                out = with_header(format!("{} {} {c} {j}", csv.len(), json.len()));
            }
            // the v1 layout
            _ => out = v1_entry(csv, json),
        }
        out
    }

    /// Stores `csv` and `json`, lets `warm` load the intact entry, writes
    /// mutation `kind` over it and loads both renderings again through a
    /// cache whose only remembered bytes are the ones `warm` verified.
    /// Whatever the bytes, `load` never panics and serves either nothing
    /// or exactly the rendering stored.
    fn serves_only_what_was_stored(
        tag: &str,
        warm: &[RowFormat],
        csv: String,
        json: String,
        kind: u8,
        noise: &[u8],
    ) {
        let writer = temp_cache(tag);
        let key = sha256_hex(b"hostile");
        writer.store(&key, &csv, &json);
        let path = writer.entry_path(&key);
        let entry = fs::read(&path).unwrap();
        let cache = ResultCache::open(&writer.root).unwrap();
        for &format in warm {
            assert!(cache.load(&key, format).is_some());
        }
        fs::write(&path, mutate(&entry, &csv, &json, kind, noise)).unwrap();

        let (got_csv, got_json) = loads(&cache, &key);
        assert!(got_csv.is_none() || got_csv.as_deref() == Some(csv.as_str()));
        assert!(got_json.is_none() || got_json.as_deref() == Some(json.as_str()));
        match kind {
            // a flipped rendering or checksum misses; the other
            // rendering is still served
            3 if !csv.is_empty() => assert_eq!((got_csv, got_json), (None, Some(json))),
            4 if !json.is_empty() => assert_eq!((got_csv, got_json), (Some(csv), None)),
            10 => assert_eq!((got_csv, got_json), (None, Some(json))),
            11 => assert_eq!((got_csv, got_json), (Some(csv), None)),
            6..=9 | 12 => assert_eq!((got_csv, got_json), (None, None)),
            _ => {}
        }
    }

    proptest! {
        /// Hostile bytes read by a cache that has verified nothing.
        #[test]
        fn hostile_entries_miss_or_serve_the_stored_rendering(
            csv in row_text(),
            json in row_text(),
            kind in 0u8..=12,
            noise in prop::collection::vec(0u8..=u8::MAX, 0..96),
        ) {
            serves_only_what_was_stored("hostile", &[], csv, json, kind, &noise);
        }

        /// Hostile bytes read by a cache that has verified the intact
        /// entry in both formats: the memo changes which checks run,
        /// never what is served.
        #[test]
        fn hostile_entries_miss_or_serve_the_stored_rendering_after_verified_loads(
            csv in row_text(),
            json in row_text(),
            kind in 0u8..=12,
            noise in prop::collection::vec(0u8..=u8::MAX, 0..96),
        ) {
            let warm = [RowFormat::Csv, RowFormat::Json];
            serves_only_what_was_stored("hostile-warm", &warm, csv, json, kind, &noise);
        }
    }
}

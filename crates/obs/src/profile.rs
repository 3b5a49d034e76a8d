//! Continuous self-profiling: a span-stack sampling profiler plus lock
//! contention accounting, both zero-dependency.
//!
//! The profiler never interrupts threads. Instead, every thread that
//! opens spans maintains an [`ActiveStack`] — a fixed-depth array of
//! interned frame ids guarded by a seqlock — and a background sampler
//! (or, in deterministic mode, the telemetry plane's logical ticks)
//! reads those stacks without ever blocking the writer. Samples fold
//! into a weighted stack-trie; snapshots render as flamegraph.pl
//! folded text, an SVG flamegraph (see [`crate::flame`]), or a
//! pprof-like JSON section inside `/metrics.json`.
//!
//! [`ContentionCounter`] is the companion primitive for lock
//! accounting: a relaxed counter increment on the uncontended
//! fast path (`try_lock` succeeding), and a wait-time [`Sketch`]
//! record only on the slow path where the lock was actually held by
//! someone else.

use crate::metrics::{Counter, MetricClass, MetricsRegistry};
use crate::sketch::Sketch;
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::TryLockError;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frames beyond this depth are counted (`truncated`) but not stored;
/// span nesting in the pipeline is ~4 deep, so 24 leaves generous room.
pub const PROFILE_MAX_DEPTH: usize = 24;

// ---------------------------------------------------------------------------
// Frame interning
// ---------------------------------------------------------------------------

/// Global intern table mapping `(category, name)` span identity to a
/// dense `u32` frame id. Content-keyed so equal strings from different
/// crates share an id; the rendered label is `category:name`, which
/// lets folded-stack consumers recover the category as the text before
/// the first `:`.
#[derive(Default)]
struct FrameTable {
    ids: HashMap<(&'static str, &'static str), u32>,
    labels: Vec<String>,
}

fn frame_table() -> &'static Mutex<FrameTable> {
    static TABLE: OnceLock<Mutex<FrameTable>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(FrameTable::default()))
}

/// Intern a frame, hitting a per-thread pointer-identity cache so the
/// hot path (span open) touches no global lock after the first time a
/// thread sees a given span site.
fn intern_frame(cat: &'static str, name: &'static str) -> u32 {
    thread_local! {
        static CACHE: RefCell<HashMap<(usize, usize), u32>> = RefCell::new(HashMap::new());
    }
    CACHE.with(|cache| {
        let key = (cat.as_ptr() as usize, name.as_ptr() as usize);
        if let Some(&id) = cache.borrow().get(&key) {
            return id;
        }
        let mut table = frame_table().lock().unwrap();
        let next = table.labels.len() as u32;
        let id = match table.ids.get(&(cat, name)) {
            Some(&id) => id,
            None => {
                table.labels.push(format!("{cat}:{name}"));
                table.ids.insert((cat, name), next);
                next
            }
        };
        drop(table);
        cache.borrow_mut().insert(key, id);
        id
    })
}

fn frame_labels() -> Vec<String> {
    frame_table().lock().unwrap().labels.clone()
}

// ---------------------------------------------------------------------------
// Seqlock'd per-thread active stack
// ---------------------------------------------------------------------------

/// The live span stack of one thread. Only the owning thread writes;
/// the sampler reads through the seqlock and retries on a torn read.
/// Everything is an atomic, so a race is at worst a discarded sample,
/// never undefined behavior.
pub struct ActiveStack {
    /// Seqlock generation: odd while a push/pop is in flight.
    seq: AtomicU32,
    /// Logical depth — may exceed `PROFILE_MAX_DEPTH`, in which case
    /// the overflowing frames are simply not recorded.
    depth: AtomicU32,
    frames: [AtomicU32; PROFILE_MAX_DEPTH],
}

impl ActiveStack {
    fn new() -> ActiveStack {
        ActiveStack {
            seq: AtomicU32::new(0),
            depth: AtomicU32::new(0),
            frames: std::array::from_fn(|_| AtomicU32::new(0)),
        }
    }

    /// Owner-thread only. The writer protocol is the classic seqlock:
    /// bump to odd, release-fence, mutate, then release-store to even —
    /// any reader that observed one of the mutations and then re-reads
    /// `seq` is guaranteed to see the odd (or later) generation.
    fn push(&self, id: u32) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        let d = self.depth.load(Ordering::Relaxed);
        if (d as usize) < PROFILE_MAX_DEPTH {
            self.frames[d as usize].store(id, Ordering::Relaxed);
        }
        self.depth.store(d.wrapping_add(1), Ordering::Relaxed);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Owner-thread only.
    fn pop(&self) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        let d = self.depth.load(Ordering::Relaxed);
        self.depth.store(d.saturating_sub(1), Ordering::Relaxed);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Read a consistent snapshot into `out`. Returns the raw logical
    /// depth on success (which may exceed `out.len()` when the stack
    /// overflowed the fixed frame array) or `None` if the writer kept
    /// the lock torn for every retry — the sample is then dropped.
    fn sample(&self, out: &mut Vec<u32>) -> Option<u32> {
        for _ in 0..8 {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            out.clear();
            let raw = self.depth.load(Ordering::Relaxed);
            let stored = (raw as usize).min(PROFILE_MAX_DEPTH);
            for f in &self.frames[..stored] {
                out.push(f.load(Ordering::Relaxed));
            }
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == s1 {
                return Some(raw);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Thread registry
// ---------------------------------------------------------------------------

fn stack_registry() -> &'static Mutex<Vec<Arc<ActiveStack>>> {
    static REG: OnceLock<Mutex<Vec<Arc<ActiveStack>>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
}

/// Keeps the registry bounded: worker threads are short-lived (one
/// scoped pool per fan-out), so each thread's stack deregisters itself
/// when the thread dies and its TLS destructor runs.
struct StackHandle(Arc<ActiveStack>);

impl Drop for StackHandle {
    fn drop(&mut self) {
        let mut reg = stack_registry().lock().unwrap();
        if let Some(i) = reg.iter().position(|s| Arc::ptr_eq(s, &self.0)) {
            reg.swap_remove(i);
        }
    }
}

thread_local! {
    static THREAD_STACK: OnceCell<StackHandle> = const { OnceCell::new() };
}

/// How many live profilers exist process-wide. Span open/close only
/// pays the active-stack maintenance cost while someone could actually
/// sample it; otherwise the check is a single relaxed load.
static LIVE_PROFILERS: AtomicUsize = AtomicUsize::new(0);

#[inline]
pub(crate) fn profiling_active() -> bool {
    LIVE_PROFILERS.load(Ordering::Relaxed) > 0
}

/// Push a frame onto the calling thread's active stack, registering
/// the stack on first use. Called from `SpanGuard::open`.
pub(crate) fn stack_push(cat: &'static str, name: &'static str) {
    let id = intern_frame(cat, name);
    THREAD_STACK.with(|cell| {
        let handle = cell.get_or_init(|| {
            let stack = Arc::new(ActiveStack::new());
            stack_registry().lock().unwrap().push(Arc::clone(&stack));
            StackHandle(stack)
        });
        handle.0.push(id);
    });
}

/// Pop the calling thread's active stack. Called from `SpanGuard::drop`.
pub(crate) fn stack_pop() {
    THREAD_STACK.with(|cell| {
        if let Some(handle) = cell.get() {
            handle.0.pop();
        }
    });
}

// ---------------------------------------------------------------------------
// Stack trie
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct TrieNode {
    children: Vec<(u32, usize)>,
    count: u64,
}

/// Weighted prefix tree over frame-id stacks; node 0 is the root.
#[derive(Debug)]
struct StackTrie {
    nodes: Vec<TrieNode>,
}

impl StackTrie {
    fn new() -> StackTrie {
        StackTrie {
            nodes: vec![TrieNode::default()],
        }
    }

    fn fold(&mut self, frames: &[u32]) {
        let mut at = 0usize;
        for &f in frames {
            at = match self.nodes[at].children.iter().find(|&&(ff, _)| ff == f) {
                Some(&(_, idx)) => idx,
                None => {
                    let idx = self.nodes.len();
                    self.nodes.push(TrieNode::default());
                    self.nodes[at].children.push((f, idx));
                    idx
                }
            };
        }
        self.nodes[at].count += 1;
    }

    /// Resolve every weighted path to `(labels, count)`.
    fn resolve(&self, labels: &[String]) -> Vec<(Vec<String>, u64)> {
        let mut out = Vec::new();
        let mut path = Vec::new();
        self.walk(0, labels, &mut path, &mut out);
        out.sort();
        out
    }

    fn walk(
        &self,
        at: usize,
        labels: &[String],
        path: &mut Vec<String>,
        out: &mut Vec<(Vec<String>, u64)>,
    ) {
        let node = &self.nodes[at];
        if node.count > 0 && !path.is_empty() {
            out.push((path.clone(), node.count));
        }
        for &(frame, child) in &node.children {
            let label = labels
                .get(frame as usize)
                .cloned()
                .unwrap_or_else(|| format!("?:{frame}"));
            path.push(label);
            self.walk(child, labels, path, out);
            path.pop();
        }
    }
}

// ---------------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------------

/// Sampling configuration carried inside `JPortalConfig::profiling`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileConfig {
    /// Wall-clock sampling frequency for the background sampler.
    pub hz: u32,
    /// When set, no sampler thread runs; samples are taken at logical
    /// tick boundaries (plane ticks, or pipeline stage ticks when no
    /// plane is attached), so profiles replay byte-identically across
    /// worker counts.
    pub deterministic: bool,
}

impl Default for ProfileConfig {
    fn default() -> ProfileConfig {
        ProfileConfig {
            hz: 997,
            deterministic: false,
        }
    }
}

#[derive(Debug)]
struct ProfInner {
    trie: Mutex<StackTrie>,
    samples: AtomicU64,
    empty: AtomicU64,
    truncated: AtomicU64,
    torn: AtomicU64,
    shutdown: AtomicBool,
}

/// The profiler: owns the fold trie and, in wall mode, the sampler
/// thread. `stop` is idempotent and also runs on drop.
pub struct Profiler {
    cfg: ProfileConfig,
    inner: Arc<ProfInner>,
    sampler: Mutex<Option<JoinHandle<()>>>,
    stopped: AtomicBool,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler").field("cfg", &self.cfg).finish()
    }
}

impl Profiler {
    /// Create a profiler and, unless deterministic, start its sampler
    /// thread sweeping every registered thread stack at `cfg.hz`.
    pub fn start(cfg: ProfileConfig) -> Arc<Profiler> {
        LIVE_PROFILERS.fetch_add(1, Ordering::SeqCst);
        let inner = Arc::new(ProfInner {
            trie: Mutex::new(StackTrie::new()),
            samples: AtomicU64::new(0),
            empty: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
            torn: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let sampler = if cfg.deterministic {
            None
        } else {
            let worker = Arc::clone(&inner);
            let period = Duration::from_secs_f64(1.0 / f64::from(cfg.hz.max(1)));
            Some(
                std::thread::Builder::new()
                    .name("jportal-profiler".into())
                    .spawn(move || {
                        let mut frames = Vec::with_capacity(PROFILE_MAX_DEPTH);
                        let mut sweep = Vec::new();
                        while !worker.shutdown.load(Ordering::Relaxed) {
                            sweep.clear();
                            sweep.extend(stack_registry().lock().unwrap().iter().cloned());
                            for stack in &sweep {
                                match stack.sample(&mut frames) {
                                    Some(raw) => record(&worker, &frames, raw),
                                    None => {
                                        worker.torn.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                            std::thread::sleep(period);
                        }
                    })
                    .expect("spawn profiler sampler"),
            )
        };
        Arc::new(Profiler {
            cfg,
            inner,
            sampler: Mutex::new(sampler),
            stopped: AtomicBool::new(false),
        })
    }

    pub fn config(&self) -> ProfileConfig {
        self.cfg
    }

    /// Take one sample of the calling thread's span stack. This is the
    /// deterministic-mode entry point, invoked at logical tick
    /// boundaries — sampling only the ticking thread keeps the sample
    /// set independent of how many workers happen to exist.
    pub fn sample_now(&self) {
        let mut frames = Vec::with_capacity(PROFILE_MAX_DEPTH);
        let raw = THREAD_STACK.with(|cell| match cell.get() {
            // Same-thread read: the seqlock is never torn mid-call.
            Some(handle) => handle.0.sample(&mut frames).unwrap_or(0),
            None => 0,
        });
        record(&self.inner, &frames, raw);
    }

    /// Stop the sampler thread and deregister from the process-wide
    /// live-profiler count. Idempotent.
    pub fn stop(&self) {
        if !self.stopped.swap(true, Ordering::SeqCst) {
            self.inner.shutdown.store(true, Ordering::SeqCst);
            LIVE_PROFILERS.fetch_sub(1, Ordering::SeqCst);
        }
        if let Some(handle) = self.sampler.lock().unwrap().take() {
            let _ = handle.join();
        }
    }

    /// Resolve the current trie into an immutable, label-resolved
    /// snapshot. Stacks are sorted lexicographically, so equal profiles
    /// render byte-identically regardless of intern or fold order.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let labels = frame_labels();
        let stacks = self.inner.trie.lock().unwrap().resolve(&labels);
        ProfileSnapshot {
            hz: self.cfg.hz,
            deterministic: self.cfg.deterministic,
            samples: self.inner.samples.load(Ordering::Relaxed),
            empty: self.inner.empty.load(Ordering::Relaxed),
            truncated: self.inner.truncated.load(Ordering::Relaxed),
            torn: self.inner.torn.load(Ordering::Relaxed),
            stacks,
        }
    }
}

impl Drop for Profiler {
    fn drop(&mut self) {
        self.stop();
    }
}

fn record(inner: &ProfInner, frames: &[u32], raw_depth: u32) {
    inner.samples.fetch_add(1, Ordering::Relaxed);
    if frames.is_empty() {
        inner.empty.fetch_add(1, Ordering::Relaxed);
        return;
    }
    if raw_depth as usize > PROFILE_MAX_DEPTH {
        inner.truncated.fetch_add(1, Ordering::Relaxed);
    }
    inner.trie.lock().unwrap().fold(frames);
}

// ---------------------------------------------------------------------------
// Profile snapshot + folded exposition
// ---------------------------------------------------------------------------

/// An immutable, label-resolved profile. `stacks` is sorted
/// lexicographically by frame path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    pub hz: u32,
    pub deterministic: bool,
    /// Total samples taken (including those that landed on an idle
    /// thread and recorded nothing).
    pub samples: u64,
    /// Samples that found an empty span stack.
    pub empty: u64,
    /// Samples whose logical depth exceeded [`PROFILE_MAX_DEPTH`].
    pub truncated: u64,
    /// Wall-mode samples dropped because the writer kept the seqlock
    /// torn across every retry.
    pub torn: u64,
    pub stacks: Vec<(Vec<String>, u64)>,
}

impl ProfileSnapshot {
    /// flamegraph.pl-compatible folded exposition: one
    /// `frame;frame;frame count` line per weighted stack, sorted.
    pub fn folded_text(&self) -> String {
        let mut out = String::new();
        for (stack, count) in &self.stacks {
            out.push_str(&stack.join(";"));
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// Sum of all stack weights (samples that recorded a stack).
    pub fn total_weight(&self) -> u64 {
        self.stacks.iter().map(|(_, c)| c).sum()
    }

    /// The `n` hottest stacks by weight, heaviest first; ties resolve
    /// by stack path so the output is deterministic.
    pub fn top(&self, n: usize) -> Vec<(Vec<String>, u64)> {
        let mut ranked = self.stacks.clone();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(n);
        ranked
    }

    /// The pprof-like JSON object embedded in `/metrics.json` under
    /// `"profile"`. Strict JSON; labels pass through the exporter's
    /// escaper at the call site, so here we only assemble structure.
    pub fn json_object(&self) -> String {
        use crate::json::write_escaped;
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"hz\":{},\"deterministic\":{},\"samples\":{},\"empty\":{},\"truncated\":{},\"torn\":{},\"stacks\":[",
            self.hz, self.deterministic, self.samples, self.empty, self.truncated, self.torn
        ));
        for (i, (stack, count)) in self.stacks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"frames\":[");
            for (j, frame) in stack.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_escaped(&mut out, frame);
            }
            out.push_str(&format!("],\"count\":{count}}}"));
        }
        out.push_str("]}");
        out
    }

    /// Parse folded text back into weighted stacks — the validation
    /// path for `jportal-inspect profile --check` and the example CI
    /// gate. Rejects empty frames, missing counts, and junk trailers.
    pub fn parse_folded(text: &str) -> Result<Vec<(Vec<String>, u64)>, String> {
        let mut out = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let (path, count) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {}: no count separator", lineno + 1))?;
            let count: u64 = count
                .parse()
                .map_err(|_| format!("line {}: bad count {count:?}", lineno + 1))?;
            let frames: Vec<String> = path.split(';').map(str::to_string).collect();
            if frames.iter().any(String::is_empty) {
                return Err(format!("line {}: empty frame in {path:?}", lineno + 1));
            }
            out.push((frames, count));
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Contention accounting
// ---------------------------------------------------------------------------

/// Lock instrumentation handle: `acquires` counts every pass through
/// the lock, `contended` counts acquisitions that found it held, and
/// `wait_us` sketches how long those waited. All three are registry
/// handles, so a disabled registry makes the whole thing free after
/// one branch.
#[derive(Debug, Clone, Default)]
pub struct ContentionCounter {
    acquires: Counter,
    contended: Counter,
    wait_us: Sketch,
}

impl ContentionCounter {
    /// A counter that records nothing; the default for instrumented
    /// structures whose owner never wired a registry.
    pub fn noop() -> ContentionCounter {
        ContentionCounter::default()
    }

    /// Register `{name}.acquires`, `{name}.contended`, `{name}.wait_us`
    /// under the given registry (noop handles when it is disabled).
    /// Whether an acquisition contends, and how often a lock is taken
    /// at all, depends on scheduling: both counters are
    /// [`MetricClass::Scheduling`].
    pub fn register(reg: &MetricsRegistry, name: &str) -> ContentionCounter {
        ContentionCounter {
            acquires: reg.counter(&format!("{name}.acquires"), MetricClass::Scheduling),
            contended: reg.counter(&format!("{name}.contended"), MetricClass::Scheduling),
            wait_us: reg.sketch(&format!("{name}.wait_us")),
        }
    }

    #[inline]
    pub fn is_live(&self) -> bool {
        self.acquires.is_live()
    }

    /// Instrumented `Mutex::lock`: `try_lock` first (the success path
    /// costs one relaxed increment over a plain lock), and only when
    /// the lock is actually held does the slow path time the wait.
    #[inline]
    pub fn lock<'a, T>(&self, m: &'a Mutex<T>) -> MutexGuard<'a, T> {
        if !self.is_live() {
            return m.lock().unwrap();
        }
        self.acquires.incr();
        match m.try_lock() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => {
                self.contended.incr();
                let t0 = Instant::now();
                let g = m.lock().unwrap();
                self.wait_us.record(t0.elapsed().as_micros() as u64);
                g
            }
            Err(TryLockError::Poisoned(e)) => panic!("instrumented lock poisoned: {e}"),
        }
    }

    /// Instrumented `RwLock::read`.
    #[inline]
    pub fn read<'a, T>(&self, l: &'a RwLock<T>) -> RwLockReadGuard<'a, T> {
        if !self.is_live() {
            return l.read().unwrap();
        }
        self.acquires.incr();
        match l.try_read() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => {
                self.contended.incr();
                let t0 = Instant::now();
                let g = l.read().unwrap();
                self.wait_us.record(t0.elapsed().as_micros() as u64);
                g
            }
            Err(TryLockError::Poisoned(e)) => panic!("instrumented lock poisoned: {e}"),
        }
    }

    /// Instrumented `RwLock::write`.
    #[inline]
    pub fn write<'a, T>(&self, l: &'a RwLock<T>) -> RwLockWriteGuard<'a, T> {
        if !self.is_live() {
            return l.write().unwrap();
        }
        self.acquires.incr();
        match l.try_write() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => {
                self.contended.incr();
                let t0 = Instant::now();
                let g = l.write().unwrap();
                self.wait_us.record(t0.elapsed().as_micros() as u64);
                g
            }
            Err(TryLockError::Poisoned(e)) => panic!("instrumented lock poisoned: {e}"),
        }
    }

    /// Time an opaque critical section (used where the lock lives
    /// behind another crate's API, e.g. the plane offer inside the ipt
    /// ring drain): counts an acquire and sketches the full duration.
    #[inline]
    pub fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.is_live() {
            return f();
        }
        self.acquires.incr();
        let t0 = Instant::now();
        let r = f();
        self.wait_us.record(t0.elapsed().as_micros() as u64);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_content_keyed_and_stable() {
        let a = intern_frame("decode", "decode_segment");
        let b = intern_frame("decode", "decode_segment");
        assert_eq!(a, b);
        let c = intern_frame("recover", "fill_hole");
        assert_ne!(a, c);
        let labels = frame_labels();
        assert_eq!(labels[a as usize], "decode:decode_segment");
        assert_eq!(labels[c as usize], "recover:fill_hole");
    }

    #[test]
    fn active_stack_push_pop_sample() {
        let s = ActiveStack::new();
        let mut out = Vec::new();
        assert_eq!(s.sample(&mut out), Some(0));
        assert!(out.is_empty());
        s.push(7);
        s.push(9);
        assert_eq!(s.sample(&mut out), Some(2));
        assert_eq!(out, [7, 9]);
        s.pop();
        assert_eq!(s.sample(&mut out), Some(1));
        assert_eq!(out, [7]);
        s.pop();
        // Underflow pops saturate rather than wrap.
        s.pop();
        assert_eq!(s.sample(&mut out), Some(0));
    }

    #[test]
    fn active_stack_overflow_is_counted_not_stored() {
        let s = ActiveStack::new();
        for i in 0..(PROFILE_MAX_DEPTH as u32 + 3) {
            s.push(i);
        }
        let mut out = Vec::new();
        let raw = s.sample(&mut out).unwrap();
        assert_eq!(raw as usize, PROFILE_MAX_DEPTH + 3);
        assert_eq!(out.len(), PROFILE_MAX_DEPTH);
        // Popping back below the limit restores exact frames.
        for _ in 0..4 {
            s.pop();
        }
        let raw = s.sample(&mut out).unwrap();
        assert_eq!(raw as usize, PROFILE_MAX_DEPTH - 1);
        assert_eq!(out.last(), Some(&(PROFILE_MAX_DEPTH as u32 - 2)));
    }

    #[test]
    fn trie_folds_and_resolves_sorted() {
        let mut t = StackTrie::new();
        t.fold(&[1, 2]);
        t.fold(&[1, 2]);
        t.fold(&[1]);
        t.fold(&[0]);
        let labels = vec!["a:x".to_string(), "b:y".to_string(), "c:z".to_string()];
        let stacks = t.resolve(&labels);
        assert_eq!(
            stacks,
            vec![
                (vec!["a:x".to_string()], 1),
                (vec!["b:y".to_string()], 1),
                (vec!["b:y".to_string(), "c:z".to_string()], 2),
            ]
        );
    }

    #[test]
    fn folded_round_trips_through_parse() {
        let snap = ProfileSnapshot {
            stacks: vec![
                (vec!["pipeline:analyze".into()], 3),
                (vec!["pipeline:analyze".into(), "decode:seg".into()], 11),
            ],
            ..ProfileSnapshot::default()
        };
        let text = snap.folded_text();
        assert_eq!(text, "pipeline:analyze 3\npipeline:analyze;decode:seg 11\n");
        assert_eq!(ProfileSnapshot::parse_folded(&text).unwrap(), snap.stacks);
        assert!(ProfileSnapshot::parse_folded("nocount\n").is_err());
        assert!(ProfileSnapshot::parse_folded("a;;b 3\n").is_err());
        assert!(ProfileSnapshot::parse_folded("a;b 3x\n").is_err());
    }

    #[test]
    fn deterministic_sample_now_records_own_stack() {
        let p = Profiler::start(ProfileConfig {
            deterministic: true,
            ..ProfileConfig::default()
        });
        assert!(profiling_active());
        // Empty stack: counted but no stack recorded.
        p.sample_now();
        stack_push("pipeline", "analyze");
        stack_push("decode", "decode_segment");
        p.sample_now();
        stack_pop();
        p.sample_now();
        stack_pop();
        let snap = p.snapshot();
        assert_eq!(snap.samples, 3);
        assert_eq!(snap.empty, 1);
        assert_eq!(snap.total_weight(), 2);
        let folded = snap.folded_text();
        assert!(folded.contains("pipeline:analyze 1\n"));
        assert!(folded.contains("pipeline:analyze;decode:decode_segment 1\n"));
        p.stop();
        p.stop(); // idempotent
    }

    #[test]
    fn wall_sampler_observes_a_busy_thread_and_stops() {
        let p = Profiler::start(ProfileConfig {
            hz: 2000,
            deterministic: false,
        });
        stack_push("recover", "assemble_thread");
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut weight = 0;
        while weight == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
            weight = p.snapshot().total_weight();
        }
        stack_pop();
        assert!(weight > 0, "sampler never observed the active stack");
        let folded = p.snapshot().folded_text();
        assert!(folded.contains("recover:assemble_thread"));
        p.stop();
        assert!(!profiling_active() || LIVE_PROFILERS.load(Ordering::SeqCst) > 0);
    }

    #[test]
    fn contention_counter_counts_and_times_waits() {
        let reg = MetricsRegistry::new(true);
        let cc = ContentionCounter::register(&reg, "lock.test");
        let m = Mutex::new(0u32);
        *cc.lock(&m) += 1;
        *cc.lock(&m) += 1;
        // Force a contended acquisition.
        let held = m.lock().unwrap();
        let waiter = std::thread::spawn({
            let cc = cc.clone();
            move || {
                // m borrowed via scope: use a static-free trick — time a
                // timed section instead to keep the borrow simple.
                cc.timed(|| std::thread::sleep(Duration::from_millis(2)));
            }
        });
        waiter.join().unwrap();
        drop(held);
        let rw = RwLock::new(0u32);
        let _ = *cc.read(&rw);
        *cc.write(&rw) += 1;
        let snap = reg.snapshot();
        assert_eq!(snap.counter("lock.test.acquires"), Some(5));
        assert_eq!(snap.counter("lock.test.contended"), Some(0));
        let wait = snap.sketch("lock.test.wait_us").unwrap();
        assert!(wait.count >= 1, "timed section must feed the sketch");

        let noop = ContentionCounter::noop();
        drop(noop.lock(&m));
        assert!(!noop.is_live());
    }

    #[test]
    fn contended_mutex_hits_slow_path() {
        let reg = MetricsRegistry::new(true);
        let cc = ContentionCounter::register(&reg, "lock.slow");
        let m = Arc::new(Mutex::new(()));
        let held = m.lock().unwrap();
        let t = std::thread::spawn({
            let cc = cc.clone();
            let m = Arc::clone(&m);
            move || {
                let _g = cc.lock(&m);
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        drop(held);
        t.join().unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("lock.slow.acquires"), Some(1));
        assert_eq!(snap.counter("lock.slow.contended"), Some(1));
        assert!(snap.sketch("lock.slow.wait_us").unwrap().count == 1);
    }
}

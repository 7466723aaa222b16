//! Blocked (register/cache-tiled) matmul kernels behind the `Matrix::*_into`
//! APIs.
//!
//! The naive kernels in [`crate::tensor`] stream the full `B` operand from
//! memory once **per output row** and read-modify-write the output row on
//! every step of the shared dimension. That is fine for single-row inference
//! but wasteful for batches: for an `m x k @ k x n` product the traffic is
//! `O(m·k·n)` loads *and* stores. The blocked kernels here restore the
//! classic GEMM shape:
//!
//! * `B` is **packed** into column panels of `NR` consecutive columns,
//!   zero-padded, so the innermost loop reads one contiguous, cache- and
//!   vector-friendly `NR`-wide strip per step of `k`;
//! * rows are processed `MR` at a time with an `MR x NR` **register
//!   accumulator**, so each packed strip is reused `MR` times and the
//!   output is written exactly once per element;
//! * for masked layers the pack is **cached and mask-aware**
//!   ([`PackedWeight`]): all-zero strips are dropped at pack time, so the
//!   autoregressive masking that zeroes roughly half of every MADE weight
//!   matrix removes that fraction of the inner-loop work outright, and the
//!   packing cost itself is paid once per weight version instead of once
//!   per call.
//!
//! Every kernel runs its whole product on the calling thread: parallelism
//! comes from the callers (one serving thread per shard), not from
//! splitting one product across cores.
//!
//! # Runtime tile selection
//!
//! The micro-kernel is generic over its `MR x NR` tile, and the tile is
//! picked **at runtime** from the CPU ([`Tile`], selected once via
//! `is_x86_feature_detected!` on the first kernel call):
//!
//! * [`Tile::Sse4x8`] — the baseline `4 x 8` tile sized for the 16-register
//!   SSE2 file (8 accumulator registers plus the strip and broadcast);
//! * [`Tile::Avx6x16`] — a `6 x 16` tile for AVX2 machines: 12 YMM
//!   accumulators of 8 lanes each, compiled in a `#[target_feature(enable =
//!   "avx2")]` instantiation so the autovectorizer actually emits 256-bit
//!   ops regardless of the baseline build target.
//!
//! The AVX2 instantiation only runs when the feature is detected; forcing
//! the 6×16 *shape* without the feature (e.g. [`with_tile`] in a test on an
//! SSE2 host) runs a baseline-compiled instantiation of the same code —
//! same arithmetic, same results, just without the wider registers. Every
//! tile accumulates in the same ascending-`k` order, so **results are
//! bit-identical across tiles** (the proptests in `crates/nn/tests/kernels.rs`
//! assert exact equality for every variant).
//!
//! The bias/activation epilogue runs as a **separate pass** over the
//! finished output rows rather than inside the accumulation loops: keeping
//! the hot loop free of anything that takes a reference into the
//! accumulator is what lets LLVM hold the `MR x NR` tile in vector
//! registers.
//!
//! # Numerical contract
//!
//! Every output element accumulates its `k` products **in strictly
//! ascending `k` order, one rounding per step**, then adds the bias, then
//! applies the activation — exactly the element-wise sequence of the naive
//! kernels and of a textbook triple loop. The results are therefore
//! **bit-identical** to the naive kernels for all finite inputs (the
//! property tests in `crates/nn/tests/kernels.rs` assert exact equality
//! across tile-boundary shapes and across tile variants; Rust performs no
//! floating-point contraction, so the AVX2 instantiation cannot introduce
//! FMAs). Documented divergence for non-finite inputs only: the naive
//! kernels *skip* multiplicands that are exactly `0.0` and the packed
//! kernels skip all-zero weight strips, so a `NaN`/`Inf` on the other side
//! of such a term does not propagate on every path. (For finite inputs a
//! skipped term contributes `±0.0` to an accumulator that starts at `+0.0`,
//! which cannot change any bit of the result.)

// Kernel code trades clippy's stylistic preferences for codegen control:
// the GEMM entry points legitimately take (a, dims.., bias, act, out)
// parameter lists, and the micro-kernels index fixed-size accumulator
// arrays with plain counted loops — the exact shape LLVM unrolls and keeps
// in registers (see the module docs and docs/PERFORMANCE.md).
#![allow(clippy::too_many_arguments, clippy::needless_range_loop)]

use crate::activation::Activation;
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::OnceLock;

/// Rows per register block of the **baseline** tile (micro-kernel height).
///
/// Together with [`NR`] this is sized for the baseline x86-64 register file
/// (16 SIMD registers): a `4 x 8` f32 accumulator occupies 8 vector
/// registers, leaving room for the packed strip and the broadcast
/// multiplier, so the accumulator never spills to the stack. Wider-vector
/// machines select a bigger tile at runtime — see [`Tile`].
pub const MR: usize = 4;
/// Columns per packed panel of the **baseline** tile (micro-kernel width; a
/// multiple of common f32 vector widths so the inner loop autovectorizes).
pub const NR: usize = 8;

/// Minimum rows before the register-blocked path pays for itself (below it
/// the per-call pack, or the lost `MR`-row strip reuse, outweighs the win).
const MIN_BLOCK_ROWS: usize = 8;

/// Minimum output columns before a panel is worth packing (independent of
/// the selected tile, so kernel dispatch never changes with the CPU — only
/// the inner tile shape does).
const MIN_PANEL_COLS: usize = 8;

/// Fraction of exact zeros in the left operand above which the naive
/// kernel's row-skip beats the dense blocked kernel (measured on the
/// serving shapes; see `docs/PERFORMANCE.md`). The sparse-capture first
/// layer dispatches on the same boundary (`made.rs`), so whether a training
/// batch runs the CSR kernel or the register-blocked kernel flips at exactly
/// the density where the dense dispatch itself would change paths.
pub(crate) const SPARSE_DISPATCH_THRESHOLD: f64 = 0.4;

/// How many `NR`-wide strips ahead of the accumulation loop the micro-kernel
/// issues a software prefetch. One strip is at most 64 bytes (a cache line),
/// so 8 strips keeps the request roughly one line's latency ahead without
/// thrashing the L1 fill buffers.
const PREFETCH_STRIPS: usize = 8;

/// The register-tile variant the blocked kernels run with.
///
/// Selected once per process from the CPU (see [`native_tile`]) and
/// overridable per thread for tests via [`with_tile`]. Both variants are
/// plain safe Rust with identical accumulation order; the AVX2 variant
/// additionally carries a `#[target_feature(enable = "avx2")]`
/// instantiation used when (and only when) the CPU supports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tile {
    /// `4 x 8` — sized for the 16-register SSE2 baseline file.
    Sse4x8,
    /// `6 x 16` — sized for AVX2's 16 YMM registers (12 accumulators of 8
    /// lanes, two strip loads, one broadcast).
    Avx6x16,
}

impl Tile {
    /// Packed panel width (columns per register block).
    pub fn nr(self) -> usize {
        match self {
            Tile::Sse4x8 => 8,
            Tile::Avx6x16 => 16,
        }
    }
}

/// The tile variant matching this machine, detected once per process.
pub fn native_tile() -> Tile {
    static TILE: OnceLock<Tile> = OnceLock::new();
    *TILE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Tile::Avx6x16;
        }
        Tile::Sse4x8
    })
}

thread_local! {
    /// Per-thread tile override installed by [`with_tile`] (tests/benches).
    static TILE_OVERRIDE: Cell<Option<Tile>> = const { Cell::new(None) };
}

/// Run `f` with `tile` forced as the register-tile variant on this thread
/// (restored on exit, also on panic). Results are bit-identical across
/// tiles, so this is purely a way for tests and benches to pin a code path
/// regardless of the machine.
pub fn with_tile<R>(tile: Tile, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Tile>);
    impl Drop for Restore {
        fn drop(&mut self) {
            TILE_OVERRIDE.with(|t| t.set(self.0));
        }
    }
    let _restore = Restore(TILE_OVERRIDE.with(|t| t.replace(Some(tile))));
    f()
}

/// The tile the current thread's kernels run with.
fn current_tile() -> Tile {
    TILE_OVERRIDE.with(|t| t.get()).unwrap_or_else(native_tile)
}

/// Whether the blocked path is profitable for an `m x k @ k x n` product:
/// enough rows to amortize the per-call pack, and wide enough that a panel
/// is not mostly padding.
pub fn use_blocked(m: usize, k: usize, n: usize) -> bool {
    m >= MIN_BLOCK_ROWS && n >= MIN_PANEL_COLS && k >= 2
}

/// Whether the cached packed-weight path is profitable. Deliberately the
/// same rule as [`use_blocked`] (the pack is free on this path, but below
/// `MIN_BLOCK_ROWS` rows the naive kernel's input-zero skipping wins on the
/// sparse activations this workspace produces) — and the masked-layer
/// dispatch relies on the two predicates agreeing (`MaskedLinear::infer_cols`
/// hands the naive kernel a `false` density hint whenever
/// `MaskedLinear::runs_packed` declines), so keep them delegating.
pub fn use_packed(m: usize, k: usize, n: usize) -> bool {
    use_blocked(m, k, n)
}

/// Whether `a` is dense enough for the blocked kernels to win over the
/// naive kernel's zero-skipping: predicate encodings (wildcard-heavy) and
/// strongly sparse activations go to the skip path, dense batches to the
/// register-blocked path. The scan is `O(len)` — two to three orders of
/// magnitude cheaper than the product it steers — and both paths produce
/// bit-identical results for finite inputs, so this is purely a performance
/// decision (and a deterministic one: same input, same path).
pub fn mostly_dense(a: &[f32]) -> bool {
    if a.is_empty() {
        return false;
    }
    let zeros = a.iter().filter(|v| **v == 0.0).count();
    (zeros as f64) < SPARSE_DISPATCH_THRESHOLD * a.len() as f64
}

thread_local! {
    /// Per-thread packing scratch: `a` holds a transposed copy of the left
    /// operand (only for the `tn` variant), `b` the packed right-operand
    /// panels. Grows to the largest shapes seen on this thread, then is
    /// reused allocation-free.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

#[derive(Default)]
struct Scratch {
    a: Vec<f32>,
    b: Vec<f32>,
}

/// Pack `b` (`k x n`, row-major) into `n.div_ceil(nr)` panels of `k x nr`,
/// zero-padding the last panel's missing columns.
fn pack_b_panels(b: &[f32], k: usize, n: usize, nr: usize, packed: &mut Vec<f32>) {
    let panels = n.div_ceil(nr);
    packed.clear();
    packed.resize(panels * k * nr, 0.0);
    for jp in 0..panels {
        let dst = &mut packed[jp * k * nr..(jp + 1) * k * nr];
        let col0 = jp * nr;
        let vis = nr.min(n - col0);
        for p in 0..k {
            dst[p * nr..p * nr + vis].copy_from_slice(&b[p * n + col0..p * n + col0 + vis]);
        }
    }
}

/// Pack `bt` (`n x k`, row-major — i.e. the transpose of the logical `k x n`
/// right operand) into the same panel layout as [`pack_b_panels`].
fn pack_bt_panels(bt: &[f32], k: usize, n: usize, nr: usize, packed: &mut Vec<f32>) {
    let panels = n.div_ceil(nr);
    packed.clear();
    packed.resize(panels * k * nr, 0.0);
    for jp in 0..panels {
        let dst = &mut packed[jp * k * nr..(jp + 1) * k * nr];
        let col0 = jp * nr;
        let vis = nr.min(n - col0);
        for (lane, row) in bt[col0 * k..(col0 + vis) * k].chunks_exact(k).enumerate() {
            for (p, &v) in row.iter().enumerate() {
                dst[p * nr + lane] = v;
            }
        }
    }
}

/// Transpose `a` (`k x m`, row-major) into `out` (`m x k`, row-major).
fn pack_a_transposed(a: &[f32], k: usize, m: usize, out: &mut Vec<f32>) {
    out.clear();
    out.resize(m * k, 0.0);
    for t in 0..k {
        let row = &a[t * m..(t + 1) * m];
        for (i, &v) in row.iter().enumerate() {
            out[i * k + t] = v;
        }
    }
}

/// A right-hand matmul operand packed into `NR`-wide panels **with
/// all-zero strips dropped**.
///
/// MADE-style masked layers multiply their weights by a binary mask that
/// zeroes every connection violating the autoregressive order — typically
/// around *half* of the matrix, in a block-structured pattern (for a given
/// output column, every hidden unit of too-high degree). Packing the masked
/// weight once per weight change (each `MaskedLinear` owns its pack and
/// refills it whenever its weights change) lets the kernel skip those
/// strips entirely:
/// each panel stores only the strips with at least one nonzero, plus their
/// original row indices, so the inner loop does `density()` of the dense
/// work while accumulating the surviving terms in the same ascending-`k`
/// order — bit-identical to the dense kernels for finite inputs (a dropped
/// strip only ever contributes `±0.0`).
///
/// The pack records the [`Tile`] it was built for (the panel width is the
/// tile's `nr`), and the matmul entry points dispatch on it — so a pack
/// built under one tile and executed after a [`with_tile`] change still runs
/// the matching micro-kernel.
///
/// The buffers are reused across refills (an optimizer step or a checkpoint
/// load repacks in place) and sized exactly to the kept strips, so a refill
/// with the same zero pattern never allocates and a pack holds no slack.
///
/// Invariant (relied on by unsafe code, debug-asserted in [`addmm_packed`]):
/// every entry of `rows` is `< k`, and panel `jp`'s strips
/// `strips[jp]..strips[jp+1]` index `rows` and (scaled by `tile.nr()`)
/// `data` in bounds. Only [`PackedWeight::fill_from`] writes these fields.
#[derive(Debug, Clone)]
pub struct PackedWeight {
    k: usize,
    n: usize,
    /// Tile variant the pack was built for (defines the strip width).
    tile: Tile,
    /// Concatenated kept strips, `tile.nr()` floats each (panel-major).
    data: Vec<f32>,
    /// Original row (shared-dimension) index of each kept strip.
    rows: Vec<u32>,
    /// Panel `jp` owns strips `strips[jp]..strips[jp + 1]`.
    strips: Vec<usize>,
}

impl Default for PackedWeight {
    fn default() -> Self {
        Self {
            k: 0,
            n: 0,
            tile: Tile::Sse4x8,
            data: Vec::new(),
            rows: Vec::new(),
            strips: Vec::new(),
        }
    }
}

impl PackedWeight {
    /// An empty pack; [`PackedWeight::fill_from`] populates it.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(k, n)` of the packed operand.
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    /// The tile variant this pack was built for.
    pub fn tile(&self) -> Tile {
        self.tile
    }

    /// Fraction of strips kept (1.0 = fully dense); for observability and
    /// tests.
    pub fn density(&self) -> f64 {
        let total = self.k * self.n.div_ceil(self.tile.nr());
        if total == 0 {
            return 1.0;
        }
        self.rows.len() as f64 / total as f64
    }

    /// Bytes the pack holds on the heap.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.data.capacity() * size_of::<f32>()
            + self.rows.capacity() * size_of::<u32>()
            + self.strips.capacity() * size_of::<usize>()
    }

    /// Re-pack from `w` (`k x n`, row-major) under the current thread's
    /// tile, reusing the existing buffers (grown, if they must grow, to
    /// exactly the kept strips).
    pub fn fill_from(&mut self, w: &[f32], k: usize, n: usize) {
        assert_eq!(w.len(), k * n, "packed weight shape mismatch");
        let tile = current_tile();
        let nr = tile.nr();
        self.k = k;
        self.n = n;
        self.tile = tile;
        let panels = n.div_ceil(nr);
        let strip = |jp: usize, p: usize| {
            let col0 = jp * nr;
            &w[p * n + col0..p * n + (col0 + nr).min(n)]
        };
        let kept = (0..panels)
            .map(|jp| (0..k).filter(|&p| strip(jp, p).iter().any(|v| *v != 0.0)).count())
            .sum::<usize>();
        self.data.clear();
        self.rows.clear();
        self.strips.clear();
        self.data.reserve_exact(kept * nr);
        self.rows.reserve_exact(kept);
        self.strips.reserve_exact(panels + 1);
        self.strips.push(0);
        for jp in 0..panels {
            for p in 0..k {
                let src = strip(jp, p);
                if src.iter().any(|v| *v != 0.0) {
                    let start = self.data.len();
                    self.data.resize(start + nr, 0.0);
                    self.data[start..start + src.len()].copy_from_slice(src);
                    self.rows.push(p as u32);
                }
            }
            self.strips.push(self.rows.len());
        }
    }
}

/// Hint the CPU to pull `data[index..]` toward L1 ahead of the accumulation
/// loop. Architecturally a no-op — a prefetch never faults, never writes,
/// and never changes a result — so it needs no bit-identity argument; the
/// bounds check only keeps the hint from wandering past the operand.
#[inline(always)]
fn prefetch_read(data: &[f32], index: usize) {
    #[cfg(target_arch = "x86_64")]
    if index < data.len() {
        // SAFETY: `index` is in bounds (checked above), and `_mm_prefetch`
        // has no architectural effect beyond a cache hint.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(data.as_ptr().add(index) as *const i8, _MM_HINT_T0);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (data, index);
    }
}

/// The bias/activation epilogue, applied to finished output rows in a
/// separate pass (see the module docs for why it is not fused into the
/// accumulation loop). Per element this runs after the full `k`
/// accumulation, preserving the naive kernels' element-wise sequence.
fn epilogue(out_rows: &mut [f32], n: usize, bias: Option<&[f32]>, act: Activation) {
    if bias.is_none() && act == Activation::Identity {
        return;
    }
    for row in out_rows.chunks_exact_mut(n) {
        if let Some(bias) = bias {
            for (d, bv) in row.iter_mut().zip(bias.iter()) {
                *d += *bv;
            }
        }
        act.apply(row);
    }
}

/// Run the dense blocked micro-kernel over `rows` of the output (`out_rows`
/// is the `rows.len() x n` slice starting at row `rows.start`), bias/act
/// epilogue included. Generic over the register tile; `#[inline(always)]`
/// so the `#[target_feature]` instantiation below compiles this body with
/// AVX2 codegen.
#[inline(always)]
fn run_rows_blocked_t<const TMR: usize, const TNR: usize>(
    a: &[f32],
    k: usize,
    packed: &[f32],
    n: usize,
    bias: Option<&[f32]>,
    act: Activation,
    rows: Range<usize>,
    out_rows: &mut [f32],
) {
    debug_assert_eq!(packed.len(), n.div_ceil(TNR) * k * TNR);
    let out_base = rows.start;
    let panels = n.div_ceil(TNR);
    let mut i = rows.start;
    while i + TMR <= rows.end {
        // SAFETY precondition for the unchecked loads below: each of these
        // slices has length exactly `k`, and the strip index `p` enumerates
        // `chunks_exact(TNR)` of a panel of length `k * TNR`, so `p < k`.
        let ar: [&[f32]; TMR] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
        for jp in 0..panels {
            let col0 = jp * TNR;
            let vis = TNR.min(n - col0);
            let panel = &packed[jp * k * TNR..(jp + 1) * k * TNR];
            let mut acc = [[0.0f32; TNR]; TMR];
            for (p, strip) in panel.chunks_exact(TNR).enumerate() {
                prefetch_read(panel, (p + PREFETCH_STRIPS) * TNR);
                for r in 0..TMR {
                    // SAFETY: `p < k == ar[r].len()` (see above).
                    let av = unsafe { *ar[r].get_unchecked(p) };
                    for l in 0..TNR {
                        acc[r][l] += av * strip[l];
                    }
                }
            }
            for r in 0..TMR {
                let dst = (i + r - out_base) * n + col0;
                out_rows[dst..dst + vis].copy_from_slice(&acc[r][..vis]);
            }
        }
        i += TMR;
    }
    while i < rows.end {
        let arow = &a[i * k..(i + 1) * k];
        for jp in 0..panels {
            let col0 = jp * TNR;
            let vis = TNR.min(n - col0);
            let panel = &packed[jp * k * TNR..(jp + 1) * k * TNR];
            let mut acc = [0.0f32; TNR];
            for (p, strip) in panel.chunks_exact(TNR).enumerate() {
                prefetch_read(panel, (p + PREFETCH_STRIPS) * TNR);
                // SAFETY: `p < k == arow.len()` (same argument as above).
                let av = unsafe { *arow.get_unchecked(p) };
                for l in 0..TNR {
                    acc[l] += av * strip[l];
                }
            }
            let dst = (i - out_base) * n + col0;
            out_rows[dst..dst + vis].copy_from_slice(&acc[..vis]);
        }
        i += 1;
    }
    epilogue(out_rows, n, bias, act);
}

/// The lanes of panel `jp` (of width `nr`) that fall inside `cols`, and the
/// output column, counted from `cols.start`, the first of them is stored
/// at. A panel straddling either end of `cols` computes the lanes outside
/// it too; they are never stored.
#[inline(always)]
fn panel_lanes(jp: usize, nr: usize, cols: &Range<usize>) -> (Range<usize>, usize) {
    let col0 = jp * nr;
    let first = cols.start.max(col0);
    (first - col0..cols.end.min(col0 + nr) - col0, first - cols.start)
}

/// Run the mask-aware packed micro-kernel over `rows` of the output,
/// bias/act epilogue included, for the output columns `cols` (`out_rows`
/// holds `cols.len()` values per row). Generic over the register tile (see
/// [`run_rows_blocked_t`]).
#[inline(always)]
fn run_rows_packed_t<const TMR: usize, const TNR: usize>(
    a: &[f32],
    k: usize,
    packed: &PackedWeight,
    cols: Range<usize>,
    bias: Option<&[f32]>,
    act: Activation,
    rows: Range<usize>,
    out_rows: &mut [f32],
) {
    debug_assert_eq!(packed.tile.nr(), TNR);
    let out_base = rows.start;
    let width = cols.len();
    let panels = cols.start / TNR..cols.end.div_ceil(TNR);
    let mut i = rows.start;
    loop {
        if i + TMR > rows.end {
            // A tail of half a tile or more runs as one more full tile
            // ending at the last row, cheaper than row by row; the rows it
            // shares with the previous tile are recomputed to the same bits.
            let tail = rows.end - i;
            if tail == 0 || 2 * tail < TMR || rows.len() < TMR {
                break;
            }
            i = rows.end - TMR;
        }
        // SAFETY precondition for the unchecked loads below: each slice has
        // length exactly `k`, and every strip row index stored in a
        // `PackedWeight` is `< k` (struct invariant; `addmm_packed` debug-asserts it).
        let ar: [&[f32]; TMR] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
        for jp in panels.clone() {
            let (lanes, at) = panel_lanes(jp, TNR, &cols);
            let sr = packed.strips[jp]..packed.strips[jp + 1];
            let sdata = &packed.data[sr.start * TNR..sr.end * TNR];
            let srows = &packed.rows[sr];
            let mut acc = [[0.0f32; TNR]; TMR];
            for (s, (strip, &p)) in sdata.chunks_exact(TNR).zip(srows.iter()).enumerate() {
                prefetch_read(sdata, (s + PREFETCH_STRIPS) * TNR);
                let p = p as usize;
                for r in 0..TMR {
                    // SAFETY: `p < k == ar[r].len()` (struct invariant).
                    let av = unsafe { *ar[r].get_unchecked(p) };
                    for l in 0..TNR {
                        acc[r][l] += av * strip[l];
                    }
                }
            }
            for r in 0..TMR {
                let dst = (i + r - out_base) * width + at;
                out_rows[dst..dst + lanes.len()].copy_from_slice(&acc[r][lanes.clone()]);
            }
        }
        i += TMR;
    }
    while i < rows.end {
        let arow = &a[i * k..(i + 1) * k];
        for jp in panels.clone() {
            let (lanes, at) = panel_lanes(jp, TNR, &cols);
            let sr = packed.strips[jp]..packed.strips[jp + 1];
            let sdata = &packed.data[sr.start * TNR..sr.end * TNR];
            let srows = &packed.rows[sr];
            let mut acc = [0.0f32; TNR];
            for (s, (strip, &p)) in sdata.chunks_exact(TNR).zip(srows.iter()).enumerate() {
                prefetch_read(sdata, (s + PREFETCH_STRIPS) * TNR);
                // SAFETY: `p < k == arow.len()` (struct invariant).
                let av = unsafe { *arow.get_unchecked(p as usize) };
                for l in 0..TNR {
                    acc[l] += av * strip[l];
                }
            }
            let dst = (i - out_base) * width + at;
            out_rows[dst..dst + lanes.len()].copy_from_slice(&acc[lanes]);
        }
        i += 1;
    }
    epilogue(out_rows, width, bias, act);
}

/// AVX2 instantiation of the dense 6×16 micro-kernel: same source, same
/// arithmetic order, compiled with 256-bit vectors. Rust performs no FP
/// contraction, so no FMA can sneak in — results stay bit-identical to the
/// baseline instantiation.
///
/// # Safety
/// The caller must have verified `is_x86_feature_detected!("avx2")`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_rows_blocked_avx2(
    a: &[f32],
    k: usize,
    packed: &[f32],
    n: usize,
    bias: Option<&[f32]>,
    act: Activation,
    rows: Range<usize>,
    out_rows: &mut [f32],
) {
    run_rows_blocked_t::<6, 16>(a, k, packed, n, bias, act, rows, out_rows)
}

/// AVX2 instantiation of the packed 6×16 micro-kernel (see
/// [`run_rows_blocked_avx2`]).
///
/// # Safety
/// The caller must have verified `is_x86_feature_detected!("avx2")`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_rows_packed_avx2(
    a: &[f32],
    k: usize,
    packed: &PackedWeight,
    cols: Range<usize>,
    bias: Option<&[f32]>,
    act: Activation,
    rows: Range<usize>,
    out_rows: &mut [f32],
) {
    run_rows_packed_t::<6, 16>(a, k, packed, cols, bias, act, rows, out_rows)
}

/// Tile-dispatched dense kernel: picks the micro-kernel instantiation for
/// `tile`, preferring the `target_feature` build when the CPU allows it.
fn run_rows_blocked(
    tile: Tile,
    a: &[f32],
    k: usize,
    packed: &[f32],
    n: usize,
    bias: Option<&[f32]>,
    act: Activation,
    rows: Range<usize>,
    out_rows: &mut [f32],
) {
    match tile {
        Tile::Sse4x8 => run_rows_blocked_t::<4, 8>(a, k, packed, n, bias, act, rows, out_rows),
        Tile::Avx6x16 => {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: feature presence just checked.
                return unsafe {
                    run_rows_blocked_avx2(a, k, packed, n, bias, act, rows, out_rows)
                };
            }
            // Forced 6×16 shape without the feature (tests on older CPUs):
            // baseline codegen, identical arithmetic.
            run_rows_blocked_t::<6, 16>(a, k, packed, n, bias, act, rows, out_rows)
        }
    }
}

/// Tile-dispatched packed kernel (the tile comes from the pack itself).
fn run_rows_packed(
    a: &[f32],
    k: usize,
    packed: &PackedWeight,
    cols: Range<usize>,
    bias: Option<&[f32]>,
    act: Activation,
    rows: Range<usize>,
    out_rows: &mut [f32],
) {
    match packed.tile {
        Tile::Sse4x8 => run_rows_packed_t::<4, 8>(a, k, packed, cols, bias, act, rows, out_rows),
        Tile::Avx6x16 => {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: feature presence just checked.
                return unsafe {
                    run_rows_packed_avx2(a, k, packed, cols, bias, act, rows, out_rows)
                };
            }
            run_rows_packed_t::<6, 16>(a, k, packed, cols, bias, act, rows, out_rows)
        }
    }
}

/// Blocked fused `out = act(a @ b + bias)` for `a: m x k`, `b: k x n`
/// (both row-major, `out` pre-sized to `m x n`). Packs `b` into per-thread
/// scratch on every call; for cached operands use [`addmm_packed`].
/// Bit-identical to the naive fused kernel for finite inputs (see the
/// module docs).
pub fn addmm_blocked(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    bias: Option<&[f32]>,
    act: Activation,
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(out.len(), m * n);
    let tile = current_tile();
    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        pack_b_panels(b, k, n, tile.nr(), &mut scratch.b);
        run_rows_blocked(tile, a, k, &scratch.b, n, bias, act, 0..m, out);
    });
}

/// Fused `out = act(a @ w[:, cols] + bias[cols])` against a pre-packed right
/// operand (see [`PackedWeight`]): no per-call packing, all-zero weight
/// strips skipped. `out` holds `cols.len()` values per row; only the panels
/// overlapping `cols` run, and `0..n` is the whole product. Every output
/// element is the same dot product whichever range it is computed in, so
/// the result is bit-identical to the dense kernels for finite inputs.
pub fn addmm_packed(
    a: &[f32],
    m: usize,
    packed: &PackedWeight,
    cols: Range<usize>,
    bias: Option<&[f32]>,
    act: Activation,
    out: &mut [f32],
) {
    let (k, n) = packed.shape();
    assert!(cols.start <= cols.end && cols.end <= n, "column range {cols:?} outside 0..{n}");
    let width = cols.len();
    assert_eq!(a.len(), m * k);
    assert_eq!(out.len(), m * width);
    if let Some(bias) = bias {
        assert_eq!(bias.len(), n, "bias length mismatch");
    }
    debug_assert!(
        packed.rows.iter().all(|&p| (p as usize) < k)
            && packed.strips.windows(2).all(|w| w[0] <= w[1])
            && packed.strips.last() == Some(&packed.rows.len()),
        "PackedWeight invariant (relied on by the unchecked loads) violated"
    );
    if width == 0 {
        return;
    }
    let bias = bias.map(|b| &b[cols.clone()]);
    run_rows_packed(a, k, packed, cols, bias, act, 0..m, out);
}

/// Blocked `out = a @ bt^T` for `a: m x k`, `bt: n x k` (row-major; the
/// right operand is supplied transposed, as in [`Matrix::matmul_nt_into`]).
///
/// [`Matrix::matmul_nt_into`]: crate::tensor::Matrix::matmul_nt_into
pub fn matmul_nt_blocked(a: &[f32], m: usize, k: usize, bt: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k);
    assert_eq!(bt.len(), n * k);
    assert_eq!(out.len(), m * n);
    let tile = current_tile();
    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        pack_bt_panels(bt, k, n, tile.nr(), &mut scratch.b);
        run_rows_blocked(tile, a, k, &scratch.b, n, None, Activation::Identity, 0..m, out);
    });
}

/// Blocked `out = a^T @ b` for `a: k x m`, `b: k x n` (row-major; the left
/// operand is supplied transposed, as in [`Matrix::matmul_tn_into`]).
///
/// [`Matrix::matmul_tn_into`]: crate::tensor::Matrix::matmul_tn_into
pub fn matmul_tn_blocked(a: &[f32], k: usize, m: usize, b: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), k * m);
    assert_eq!(b.len(), k * n);
    assert_eq!(out.len(), m * n);
    let tile = current_tile();
    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let Scratch { a: packed_a, b: packed_b } = &mut *scratch;
        pack_a_transposed(a, k, m, packed_a);
        pack_b_panels(b, k, n, tile.nr(), packed_b);
        run_rows_blocked(tile, packed_a, k, packed_b, n, None, Activation::Identity, 0..m, out);
    });
}

/// A batch of rows in compressed-sparse-row form: per row, the column
/// indices (ascending) and values of its nonzero entries.
///
/// This is the input format of the fused encode→matmul first-layer kernels
/// ([`addmm_sparse`], [`matmul_tn_sparse`]): the predicate encoder emits
/// mostly-zero one-hot rows, and capturing them once at encode time lets the
/// first layer's forward *and* its weight-gradient matmul consume exactly
/// the nonzero terms — no per-call density scan, no per-element zero test.
/// The kernels accumulate those terms in the same ascending-index order as
/// the naive zero-skipping kernels, so results are **bit-identical** to
/// every dense path for finite inputs (a skipped term contributes `±0.0` to
/// an accumulator that starts at `+0.0`; see the module docs).
///
/// [`SparseRows::begin`] reserves the dense worst case up front, so a
/// capture over fixed-shape batches never reallocates after the first call —
/// the zero-allocation training loop relies on this.
#[derive(Debug, Clone, Default)]
pub struct SparseRows {
    rows: usize,
    cols: usize,
    /// Row `r` owns entries `offsets[r]..offsets[r + 1]`.
    offsets: Vec<usize>,
    /// Column index of each nonzero, ascending within a row.
    idx: Vec<u32>,
    /// Value of each nonzero, parallel to `idx`.
    val: Vec<f32>,
}

impl SparseRows {
    /// An empty capture; [`SparseRows::begin`] + [`SparseRows::push_row`]
    /// populate it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset to an empty capture of `cols`-wide rows, reserving capacity for
    /// `rows` fully dense rows so the subsequent [`SparseRows::push_row`]
    /// calls never reallocate regardless of how the batch's density turns
    /// out.
    pub fn begin(&mut self, rows: usize, cols: usize) {
        assert!(cols <= u32::MAX as usize, "sparse capture column index overflows u32");
        self.rows = 0;
        self.cols = cols;
        self.offsets.clear();
        self.offsets.reserve(rows + 1);
        self.offsets.push(0);
        let worst = rows * cols;
        self.idx.clear();
        self.idx.reserve(worst);
        self.val.clear();
        self.val.reserve(worst);
    }

    /// Append one dense row, capturing its nonzero entries in ascending
    /// column order.
    pub fn push_row(&mut self, dense: &[f32]) {
        assert_eq!(dense.len(), self.cols, "sparse capture row width mismatch");
        for (j, &v) in dense.iter().enumerate() {
            if v != 0.0 {
                self.idx.push(j as u32);
                self.val.push(v);
            }
        }
        self.rows += 1;
        self.offsets.push(self.idx.len());
    }

    /// Number of captured rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Width of every captured row.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Fraction of entries that are nonzero (an empty capture counts as
    /// dense, mirroring [`mostly_dense`] on an empty slice).
    pub fn density(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            return 1.0;
        }
        self.val.len() as f64 / total as f64
    }

    /// Whether the dense dispatch would route a matrix of this density to
    /// the zero-skipping path — exactly the complement of [`mostly_dense`],
    /// so swapping in the sparse kernels never changes which *class* of
    /// kernel (skip vs register-blocked) a shape runs.
    pub fn is_sparse_enough(&self) -> bool {
        1.0 - self.density() >= SPARSE_DISPATCH_THRESHOLD
    }

    /// Row `r` as parallel (column-index, value) slices.
    fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let range = self.offsets[r]..self.offsets[r + 1];
        (&self.idx[range.clone()], &self.val[range])
    }
}

/// Fused `out = act(a @ b + bias)` where the left operand is a sparse
/// capture (`a`: `m x k` in CSR form) and `b` is `k x n` row-major (`out`
/// pre-sized to `m x n`). Each output row accumulates exactly its input
/// row's nonzero terms in ascending-`k` order — the identical element-wise
/// sequence to the naive zero-skipping kernel, and therefore (for finite
/// inputs) bit-identical to every dense path.
pub fn addmm_sparse(
    a: &SparseRows,
    b: &[f32],
    n: usize,
    bias: Option<&[f32]>,
    act: Activation,
    out: &mut [f32],
) {
    let (m, k) = (a.rows(), a.cols());
    assert_eq!(b.len(), k * n, "sparse addmm operand shape mismatch");
    assert_eq!(out.len(), m * n, "sparse addmm output shape mismatch");
    for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
        out_row.fill(0.0);
        let (idx, val) = a.row(i);
        for (&j, &v) in idx.iter().zip(val.iter()) {
            let brow = &b[j as usize * n..(j as usize + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(brow.iter()) {
                *o += v * bv;
            }
        }
        if let Some(bias) = bias {
            for (o, &bv) in out_row.iter_mut().zip(bias.iter()) {
                *o += bv;
            }
        }
        act.apply(out_row);
    }
}

/// `out = a^T @ b` where `a` is a sparse capture over `t` rows (`t x m` in
/// CSR form) and `b` is `t x n` row-major (`out` pre-sized to `m x n`) —
/// the weight-gradient product `input^T @ grad` with the input consumed
/// directly from the encode-time capture. Accumulation visits `t` in
/// ascending order (outer loop), matching the naive transposed kernel's
/// element-wise sequence exactly, so results are bit-identical for finite
/// inputs. The scatter over output rows makes this kernel inherently
/// serial, like the naive path it replaces.
pub fn matmul_tn_sparse(a: &SparseRows, b: &[f32], n: usize, out: &mut [f32]) {
    let (t_rows, m) = (a.rows(), a.cols());
    assert_eq!(b.len(), t_rows * n, "sparse tn operand shape mismatch");
    assert_eq!(out.len(), m * n, "sparse tn output shape mismatch");
    out.fill(0.0);
    for t in 0..t_rows {
        let (idx, val) = a.row(t);
        let brow = &b[t * n..(t + 1) * n];
        for (&i, &v) in idx.iter().zip(val.iter()) {
            let orow = &mut out[i as usize * n..(i as usize + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += v * bv;
            }
        }
    }
}

//! Biased matrix factorization trained by SGD (paper §II-A-b).
//!
//! Loss (paper, §II-A-b):
//! `½ Σ (a_ui − μ − b_u − c_i − x_u·y_i)² + λ/2 (‖X‖² + ‖Y‖²)`
//! optimized by single-sample SGD. The paper's experimental setting is
//! k = 10, η = 0.005, λ = 0.1 (§IV-A3a).

use crate::bytesio::{self, ByteSink, Chunked, Fnv1a64, Reader};
use crate::kernel::{self, Floats, Lanes, Sweep};
use crate::model::{Model, ModelCodecError, ModelView, ViewSource};
use crate::rows::RowStore;
use rand::rngs::StdRng;
use rand::Rng;
use rex_data::dist::normal;
use rex_data::Rating;
use std::borrow::Cow;

const MAGIC: u32 = 0x4d46_3031; // "MF01"
const MAGIC_DELTA: u32 = 0x4d46_4431; // "MFD1"

/// Process-wide stamp source for [`MfModel::factor_version`]. Every
/// mutating call takes a fresh stamp, so two models carry the same version
/// only when one is an unmutated clone of the other — which makes the
/// version a sound cache key for derived read-side data (item norms in
/// `rex_core::serve`) across *any* set of models in the process.
static FACTOR_STAMP: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

fn next_factor_stamp() -> u64 {
    FACTOR_STAMP.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// A change record carries its rows one by one (the row form) while at
/// most one row in this many is logged, and the whole tables past that.
/// Gathering a row costs more per byte than hashing the tables where
/// they lie: on the 610 × 9 000, k = 10 model the two forms cross near
/// 70 % of the rows on a warm cache and read level at 64 % inside a
/// running workload (README, "What a commitment costs"), so the row
/// form stops where it is still ~2.4× cheaper. A raw-sharing epoch logs
/// 3–5 % of the rows.
///
/// The same share decides a table's layout ([`MfModel::ratings_reach_full_form`]):
/// a model whose training ratings reach one row in this many commits in
/// the full form once trained, so it takes every row at build, in row
/// order, and each whole-table pass reads one run per table.
const ROW_FORM_UP_TO_ONE_ROW_IN: usize = 4;

/// One bit per row of a table, in ascending row order.
#[derive(Debug, Clone)]
struct RowBits(Vec<u64>);

impl RowBits {
    fn new(rows: usize) -> Self {
        RowBits(vec![0; rows.div_ceil(64)])
    }

    /// Over the words rather than `self`: the training sweep holds them
    /// as a slice beside its other tables.
    #[inline(always)]
    fn set(words: &mut [u64], row: usize) {
        words[row / 64] |= 1 << (row % 64);
    }

    fn count(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn clear(&mut self) {
        self.0.fill(0);
    }

    /// The set rows, ascending.
    fn iter(&self) -> impl Iterator<Item = u32> + Clone + '_ {
        self.0.iter().enumerate().flat_map(|(word, &bits)| {
            std::iter::successors((bits != 0).then_some(bits), |b| {
                let rest = b & (b - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |b| word as u32 * 64 + b.trailing_zeros())
        })
    }
}

/// What was written to a model since its last change record
/// ([`Model::write_changes`]): a superset of the rows whose embedding,
/// bias or seen flag differ from the model as of that record. Kept where
/// the writes are — the training sweep sets two bits per step — so that
/// a commitment link hashes what an epoch wrote, not the whole table.
/// The global mean has no bit: every record carries it.
#[derive(Debug, Clone)]
struct WriteLog {
    /// Every row may have been written: a fresh or decoded model, or one
    /// merged since the last record. The row bits still collect writes
    /// but the next record ignores them.
    all: bool,
    users: RowBits,
    items: RowBits,
}

impl WriteLog {
    /// The log of a model nobody has taken a record from.
    fn everything(num_users: usize, num_items: usize) -> Self {
        WriteLog {
            all: true,
            users: RowBits::new(num_users),
            items: RowBits::new(num_items),
        }
    }
}

/// Hyperparameters of the MF recommender.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MfHyperParams {
    /// Embedding dimension (paper default: 10; Fig 3 sweeps 10–50).
    pub k: usize,
    /// SGD learning rate η.
    pub learning_rate: f32,
    /// L2 regularization λ.
    pub lambda: f32,
    /// Std of the Gaussian embedding initialization.
    pub init_std: f32,
}

impl Default for MfHyperParams {
    fn default() -> Self {
        MfHyperParams {
            k: 10,
            learning_rate: 0.005,
            lambda: 0.1,
            init_std: 0.1,
        }
    }
}

/// Biased MF model over a fixed user/item universe.
///
/// Logically every node of a REX deployment holds the full embedding
/// tables (as in the paper's implementation, where models are exchanged
/// whole): that is what the codecs carry, what [`Model::memory_bytes`]
/// reports to the EPC cost model, and what every accessor reads.
/// Resident, a model holds only the rows it has written (all of them,
/// once it has written most): the tables are copy-on-write row stores
/// over one initialization that every clone shares
/// ([`MfModel::resident_bytes`]). The per-row seen flags track
/// which rows carry information, which drives the partial-merge rule of
/// §III-C2.
#[derive(Debug, Clone)]
pub struct MfModel {
    hp: MfHyperParams,
    num_users: u32,
    num_items: u32,
    global_mean: f32,
    /// User rows: the embedding `x_u`, then the bias `b_u`.
    users: RowStore,
    /// Item rows: the embedding `y_i`, then the bias `c_i`.
    items: RowStore,
    /// In-memory mutation stamp (see [`MfModel::factor_version`]).
    /// Deliberately *not* serialized: wire bytes and fingerprints are
    /// unchanged by its existence.
    version: u64,
    /// Rows written since the last change record; in-memory only, like
    /// the version, and (at a bit per row) left out of `memory_bytes`.
    log: WriteLog,
}

impl MfModel {
    /// Creates a model with Gaussian-initialized embeddings and zero biases.
    /// All nodes of a deployment use the same `seed` so their initial models
    /// coincide (standard for decentralized SGD).
    #[must_use]
    pub fn new(
        num_users: u32,
        num_items: u32,
        hp: MfHyperParams,
        global_mean: f32,
        seed: u64,
    ) -> Self {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let nu = num_users as usize;
        let ni = num_items as usize;
        let mut draw = || normal(&mut rng, 0.0, f64::from(hp.init_std)) as f32;
        let users = RowStore::drawn(nu, hp.k, &mut draw);
        let items = RowStore::drawn(ni, hp.k, &mut draw);
        MfModel {
            hp,
            num_users,
            num_items,
            global_mean,
            users,
            items,
            version: next_factor_stamp(),
            log: WriteLog::everything(nu, ni),
        }
    }

    /// The model's current factor version: a process-unique stamp that
    /// changes on every mutating call (SGD step, training sweep, merge,
    /// mean update, codec reconstruction). Read-side consumers key caches
    /// of derived data (e.g. per-item factor norms) on it: an unchanged
    /// version guarantees bit-identical parameters, so the cache is exact,
    /// and any row delta — however small — invalidates it. Cloning
    /// preserves the version (a clone *is* bit-identical until mutated).
    /// The stamp is in-memory only: it never reaches the wire or the
    /// digests.
    ///
    /// One stamp per *call*, not per step: `train_steps` /
    /// `train_steps_batched` take theirs after the whole sweep (the stamp
    /// source is one process-wide atomic, and a `&mut` borrow means nobody
    /// can read the version mid-sweep), and a call that mutates nothing —
    /// training on empty data — takes none.
    #[must_use]
    pub fn factor_version(&self) -> u64 {
        self.version
    }

    /// Number of user rows in the embedding table.
    #[must_use]
    pub fn num_users(&self) -> u32 {
        self.num_users
    }

    /// Number of item rows in the embedding table.
    #[must_use]
    pub fn num_items(&self) -> u32 {
        self.num_items
    }

    /// The user's embedding row `x_u` (length `k`).
    ///
    /// # Panics
    /// When `user` is outside the model's user universe.
    #[must_use]
    #[inline]
    pub fn user_factors(&self, user: u32) -> &[f32] {
        self.users.row(user as usize).0
    }

    /// The user's bias `b_u`.
    ///
    /// # Panics
    /// When `user` is outside the model's user universe.
    #[must_use]
    #[inline]
    pub fn user_bias(&self, user: u32) -> f32 {
        self.users.row(user as usize).1
    }

    /// The item's embedding row `y_i` (length `k`) and bias `c_i` — what
    /// the serve path's blocked scan reads, row by row.
    ///
    /// # Panics
    /// When `item` is outside the model's item universe.
    #[must_use]
    #[inline]
    pub fn item_row(&self, item: u32) -> (&[f32], f32) {
        self.items.row(item as usize)
    }

    /// The full item embedding table `Y`, row-major `num_items × k`:
    /// borrowed when the rows lie side by side in one run (a fresh
    /// clone, a decoded model, one that owns every row), gathered into a
    /// new vector otherwise. Per-row readers take [`MfModel::item_row`].
    #[must_use]
    pub fn item_factors(&self) -> Cow<'_, [f32]> {
        let mut runs = self.items.runs();
        match (runs.next(), runs.next()) {
            (Some((factors, _)), None) => Cow::Borrowed(factors),
            _ => {
                let mut table = Vec::with_capacity(self.items.rows() * self.hp.k);
                for (factors, _) in self.items.runs() {
                    table.extend_from_slice(factors);
                }
                Cow::Owned(table)
            }
        }
    }

    /// The per-item seen mask (`item_seen[i]` ⇔ [`MfModel::has_item`]).
    #[must_use]
    pub fn item_seen_mask(&self) -> &[bool] {
        &self.items.seen
    }

    /// Bytes this model holds of its own: the row slots, the rows it has
    /// written, the seen flags and the write log. The initialization its
    /// clones share is left out ([`MfModel::base_bytes`]; a caller
    /// summing a fleet counts it once), and so is the fixed-size struct.
    /// [`Model::memory_bytes`] stays the logical size.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.users.resident_bytes()
            + self.items.resident_bytes()
            + 8 * (self.log.users.0.len() + self.log.items.0.len())
    }

    /// Bytes of the shared initialization this model's unwritten rows
    /// read from (zero for a model that owns every row: a decoded one,
    /// or one after [`MfModel::own_all_rows`]).
    #[must_use]
    pub fn base_bytes(&self) -> usize {
        self.users.base_bytes() + self.items.base_bytes()
    }

    fn touch(&mut self) {
        self.version = next_factor_stamp();
    }

    /// Makes every row this model's own, laid out in row order, and lets
    /// go of the shared initialization ([`MfModel::base_bytes`] reads 0
    /// after): a model that will write most of its rows anyway (a
    /// model-sharing node's first merge writes every row a neighbour has
    /// seen; see [`MfModel::ratings_reach_full_form`]) takes them at
    /// once, instead of a few at a time in the order it writes them.
    /// Moves no value and leaves the factor version as it was.
    pub fn own_all_rows(&mut self) {
        self.users.own_all();
        self.items.own_all();
    }

    /// Whether training on `ratings` reaches at least one of this
    /// model's rows (users and items together) in four: the share past
    /// which its change records take the full form, so that every
    /// commitment link reads the whole table anyway. Such a model should own its rows in row
    /// order ([`MfModel::own_all_rows`]), or each full-form pass gathers
    /// one run per row it wrote. A rating reaches two rows, so fewer
    /// than one rating per eight rows answers `false` before any row is
    /// counted. Ratings outside the model's cells reach nothing.
    #[must_use]
    pub fn ratings_reach_full_form(&self, ratings: &[Rating]) -> bool {
        let rows = (self.num_users + self.num_items) as usize;
        if 2 * ratings.len() * ROW_FORM_UP_TO_ONE_ROW_IN < rows {
            return false;
        }
        let (mut users, mut items) = (
            RowBits::new(self.num_users as usize),
            RowBits::new(self.num_items as usize),
        );
        for r in ratings {
            if r.user < self.num_users && r.item < self.num_items {
                RowBits::set(&mut users.0, r.user as usize);
                RowBits::set(&mut items.0, r.item as usize);
            }
        }
        (users.count() + items.count()) * ROW_FORM_UP_TO_ONE_ROW_IN >= rows
    }

    /// Hyperparameters.
    #[must_use]
    pub fn hyper_params(&self) -> &MfHyperParams {
        &self.hp
    }

    /// Global mean used as prediction baseline.
    #[must_use]
    pub fn global_mean(&self) -> f32 {
        self.global_mean
    }

    /// Sets the global mean (normally derived from local training data).
    pub fn set_global_mean(&mut self, mean: f32) {
        self.global_mean = mean;
        self.touch();
    }

    /// One SGD step on a single rating.
    pub fn sgd_step(&mut self, r: &Rating) {
        self.train_on(std::slice::from_ref(r), std::iter::once(0));
    }

    /// Runs one SGD step per pick (an index into `data`), in pick order,
    /// as one kernel sweep, then takes the call's factor stamp.
    fn train_on(&mut self, data: &[Rating], picks: impl Iterator<Item = usize>) {
        kernel::sweep(TrainSweep {
            model: self,
            data,
            picks,
        });
        self.touch();
    }

    /// [`Model::predict`] with the dot product supplied by the caller:
    /// the element entry passes [`kernel::dot`], a sweep its level's.
    #[inline(always)]
    fn predict_by(&self, user: u32, item: u32, dot: impl FnOnce(&[f32], &[f32]) -> f32) -> f32 {
        let (u, i) = (user as usize, item as usize);
        let mut pred = self.global_mean;
        let user_ok = self.users.seen.get(u).copied().unwrap_or(false);
        let item_ok = self.items.seen.get(i).copied().unwrap_or(false);
        let user_row = user_ok.then(|| self.users.row(u));
        let item_row = item_ok.then(|| self.items.row(i));
        if let Some((_, bias)) = user_row {
            pred += bias;
        }
        if let Some((_, bias)) = item_row {
            pred += bias;
        }
        if let (Some((x, _)), Some((y, _))) = (user_row, item_row) {
            pred += dot(x, y);
        }
        pred.clamp(0.5, 5.0)
    }

    /// Training loss (MSE + L2 terms) over `data`, for tests/diagnostics.
    ///
    /// The per-rating prediction runs on the *same* kernel `sgd_step`
    /// trains with, so reported loss can never diverge bitwise from the
    /// predictions training saw.
    #[must_use]
    pub fn loss(&self, data: &[Rating]) -> f64 {
        let mse = kernel::sweep(ResidualSweep {
            model: self,
            data,
            residual: Residual::Train,
        }) * 0.5;
        let l2 = |table: &RowStore| -> f64 {
            table
                .runs()
                .flat_map(|(factors, _)| factors)
                .map(|v| f64::from(*v) * f64::from(*v))
                .sum()
        };
        mse + 0.5 * f64::from(self.hp.lambda) * (l2(&self.users) + l2(&self.items))
    }

    /// Whether this model has trained on (or merged) data for `user`.
    #[must_use]
    #[inline]
    pub fn has_user(&self, user: u32) -> bool {
        self.users.seen[user as usize]
    }

    /// Whether this model has trained on (or merged) data for `item`.
    #[must_use]
    #[inline]
    pub fn has_item(&self, item: u32) -> bool {
        self.items.seen[item as usize]
    }

    /// Row indices of one table whose parameters differ from `reference`
    /// (embedding row, bias, or seen flag — compared via `f32` equality).
    fn changed_rows(table: &RowStore, reference: &RowStore) -> Vec<u32> {
        (0..table.rows())
            .filter(|&row| {
                table.seen[row] != reference.seen[row] || table.row(row) != reference.row(row)
            })
            .map(|row| row as u32)
            .collect()
    }

    /// The parameter tables and seen masks in wire order — every user
    /// bias, every item bias, the user embeddings, the item embeddings,
    /// then the two masks: everything after the header, and all that
    /// [`Model::ref_fingerprint`] covers. Gathered a run of side-by-side
    /// rows at a time.
    fn write_tables(&self, sink: &mut impl ByteSink) {
        let runs = || {
            [&self.users, &self.items]
                .into_iter()
                .flat_map(RowStore::runs)
        };
        bytesio::put_f32_runs(sink, runs().map(|(_, biases)| biases));
        bytesio::put_f32_runs(sink, runs().map(|(factors, _)| factors));
        bytesio::put_bool_slice(sink, &self.users.seen);
        bytesio::put_bool_slice(sink, &self.items.seen);
    }

    /// The first four words of every encoding: magic, dimensions, k.
    fn put_header(&self, sink: &mut impl ByteSink, magic: u32) {
        bytesio::put_u32(sink, magic);
        bytesio::put_u32(sink, self.num_users);
        bytesio::put_u32(sink, self.num_items);
        bytesio::put_u32(sink, self.hp.k as u32);
    }

    /// One table's share of a row encoding — count, ascending row ids,
    /// bit-packed seen flags, then bias + embedding per row — shared by
    /// the sparse wire delta and the commitment's row form. `rows` is
    /// walked once per part, and the parts gather in a stack chunk.
    fn put_delta_section(
        sink: &mut impl ByteSink,
        rows: impl Iterator<Item = u32> + Clone,
        table: &RowStore,
    ) {
        let mut chunk = Chunked::new(sink);
        bytesio::put_u32(&mut chunk, rows.clone().count() as u32);
        for row in rows.clone() {
            bytesio::put_u32(&mut chunk, row);
        }
        bytesio::put_bools(&mut chunk, rows.clone().map(|row| table.seen[row as usize]));
        for row in rows {
            let (factors, bias) = table.row(row as usize);
            bytesio::put_f32(&mut chunk, bias);
            bytesio::put_f32_slice(&mut chunk, factors);
        }
    }

    fn read_delta_section(
        r: &mut Reader<'_>,
        k: usize,
        table: &mut RowStore,
        written: &mut RowBits,
    ) -> Result<(), ModelCodecError> {
        let rows = table.rows();
        let count = r.u32()? as usize;
        if count > rows {
            return Err(ModelCodecError::Malformed(format!(
                "delta claims {count} changed rows of {rows}"
            )));
        }
        let ids = r.u32_vec(count)?;
        for &row in &ids {
            if row as usize >= rows {
                return Err(ModelCodecError::Malformed(format!(
                    "delta row {row} outside table of {rows}"
                )));
            }
        }
        // Seen flags travel bit-packed after the ids, one per carried row.
        let flags = r.bool_vec(count)?;
        for (&row, &flag) in ids.iter().zip(&flags) {
            let row = row as usize;
            let bias = r.f32()?;
            let values = r.bytes(4 * k)?;
            let (dst, dst_bias) = table.row_mut(row);
            *dst_bias = bias;
            for (d, v) in dst.iter_mut().zip(values.chunks_exact(4)) {
                *d = f32::from_le_bytes([v[0], v[1], v[2], v[3]]);
            }
            table.seen[row] = flag;
            RowBits::set(&mut written.0, row);
        }
        Ok(())
    }

    /// Overwrites this model's rows with the user section, then the item
    /// section, that end `r` (logging each row written) and re-stamps it.
    fn read_delta_sections(&mut self, r: &mut Reader<'_>) -> Result<(), ModelCodecError> {
        let k = self.hp.k;
        Self::read_delta_section(r, k, &mut self.users, &mut self.log.users)?;
        Self::read_delta_section(r, k, &mut self.items, &mut self.log.items)?;
        if r.remaining() != 0 {
            return Err(ModelCodecError::Malformed(format!(
                "{} trailing bytes",
                r.remaining()
            )));
        }
        self.touch();
        Ok(())
    }

    /// Replays one change record ([`Model::write_changes`]) onto the
    /// model as of the record before it, which becomes the recorded model
    /// bit for bit — what checking a single commitment link takes: the
    /// previous model and the link's record. A full-form record replaces
    /// every table; a row-form record overwrites the rows it carries.
    /// On an error the model may be partly overwritten.
    pub fn apply_changes(&mut self, record: &[u8]) -> Result<(), ModelCodecError> {
        let mut r = Reader::new(record);
        let magic = r.u32()?;
        let shape = (r.u32()?, r.u32()?, r.u32()? as usize);
        if shape != (self.num_users, self.num_items, self.hp.k) {
            return Err(ModelCodecError::Incompatible(format!(
                "record shape {shape:?} vs model {}x{} k={}",
                self.num_users, self.num_items, self.hp.k
            )));
        }
        match magic {
            MAGIC => {
                *self = MfModel {
                    hp: self.hp,
                    ..Self::from_bytes(record)?
                };
                Ok(())
            }
            MAGIC_DELTA => {
                self.global_mean = r.f32()?;
                self.read_delta_sections(&mut r)
            }
            _ => Err(ModelCodecError::Malformed("bad record magic".into())),
        }
    }

    fn check_compatible(&self, other: &Self) {
        assert!(
            self.same_shape(other),
            "merging incompatible MF models ({}x{} k={} vs {}x{} k={})",
            self.num_users,
            self.num_items,
            self.hp.k,
            other.num_users,
            other.num_items,
            other.hp.k
        );
    }
}

/// How many picks the training sweep draws, and reads ahead, at a time.
/// Sixteen picks touch ~130 cache lines, well past what a core keeps in
/// flight at once; on 610 cold models a block of 8 measured slower
/// (36-37 µs per 300-step sweep against 30-33) and 32 no faster.
const LOOKAHEAD: usize = 16;

/// The training sweep: one un-stamped SGD step per pick, in pick order.
///
/// A step's operands — the rating, two row slots, two rows (embedding
/// and bias), two seen flags — sit at addresses the pick decides, and on
/// a fleet node none of them is in cache: run pick by pick, each step
/// waits out its own misses before the next pick is even drawn. So the
/// picks are drawn [`LOOKAHEAD`] at a time into a stack array, and
/// before one block is stepped through the next block's rows are
/// **resolved and read once** ([`TrainSweep::read_ahead`]): each row the
/// block will write is made the model's own (copied out of the shared
/// base the first time), then its lines are read — independent loads
/// the core overlaps, which leave the slots and rows in cache for the
/// steps that follow.
///
/// Bit-identical to the plain lazy loop by construction. The iterator is
/// drained in the same order and to the same end, so a caller's RNG is
/// left in the same state; the steps run in pick order on the same
/// kernels; and the read-ahead writes no value — taking a row copies it
/// unchanged, and the sum of what it reads goes to `std::hint::black_box`
/// and nowhere else.
struct TrainSweep<'a, I> {
    model: &'a mut MfModel,
    data: &'a [Rating],
    picks: I,
}

impl<I: Iterator<Item = usize>> TrainSweep<'_, I> {
    /// Draws the next block of picks; how many there were.
    #[inline(always)]
    fn draw(picks: &mut I, block: &mut [usize; LOOKAHEAD]) -> usize {
        let mut len = 0;
        for (slot, idx) in block.iter_mut().zip(picks) {
            *slot = idx;
            len += 1;
        }
        len
    }

    /// Takes every row the steps for `block` will write, noting their
    /// (user, item) slots in `slots`, then reads every line the steps
    /// will: the rating, both ends of its user and item rows (a k = 10
    /// row and its bias span at most two lines) and the seen flags.
    #[inline(always)]
    fn read_ahead(
        model: &mut MfModel,
        data: &[Rating],
        block: &[usize],
        slots: &mut [(usize, usize); LOOKAHEAD],
    ) {
        // The slots first, a short loop whose loads are all in flight at
        // once; then the rows behind them, whose addresses they give.
        for (&idx, slot) in block.iter().zip(slots.iter_mut()) {
            let r = &data[idx];
            *slot = (
                model.users.own(r.user as usize),
                model.items.own(r.item as usize),
            );
        }
        let mut lines = 0u32;
        for (&idx, &(su, si)) in block.iter().zip(slots.iter()) {
            let r = &data[idx];
            lines ^= r.value.to_bits()
                ^ row_lines(model.users.slot(su))
                ^ row_lines(model.items.slot(si))
                ^ u32::from(model.users.seen[r.user as usize])
                ^ u32::from(model.items.seen[r.item as usize]);
        }
        std::hint::black_box(lines);
    }
}

impl<I: Iterator<Item = usize>> Sweep for TrainSweep<'_, I> {
    type Output = ();
    #[inline(always)]
    fn run<L: Lanes>(self, lanes: L) {
        let (m, data, mut picks) = (self.model, self.data, self.picks);
        let lr = m.hp.learning_rate;
        let reg = m.hp.lambda;
        let mean = m.global_mean;
        let mut block = [0usize; LOOKAHEAD];
        let mut slots = [(0usize, 0usize); LOOKAHEAD];
        let mut len = Self::draw(&mut picks, &mut block);
        Self::read_ahead(m, data, &block[..len], &mut slots);
        while len > 0 {
            let mut next = [0usize; LOOKAHEAD];
            let mut next_slots = [(0usize, 0usize); LOOKAHEAD];
            let next_len = Self::draw(&mut picks, &mut next);
            // Slots are indices, so taking the next block's rows (which
            // may grow the overlay) leaves this block's slots valid.
            Self::read_ahead(m, data, &next[..next_len], &mut next_slots);
            let (users, items) = (&mut m.users, &mut m.items);
            let (users_written, items_written) = (&mut m.log.users.0[..], &mut m.log.items.0[..]);
            for (&idx, &(su, si)) in block[..len].iter().zip(&slots[..len]) {
                let r = &data[idx];
                let (u, i) = (r.user as usize, r.item as usize);
                let (xu, bu) = users.slot_mut(su);
                let (yi, ci) = items.slot_mut(si);
                let pred = mean + *bu + *ci + lanes.dot(xu, yi);
                let err = r.value - pred;

                *bu += lr * (err - reg * *bu);
                *ci += lr * (err - reg * *ci);
                lanes.sgd_update(xu, yi, lr, err, reg);
                users.seen[u] = true;
                items.seen[i] = true;
                RowBits::set(users_written, u);
                RowBits::set(items_written, i);
            }
            (block, slots, len) = (next, next_slots, next_len);
        }
    }
}

/// Which per-rating residual a [`ResidualSweep`] squares.
#[derive(Clone, Copy)]
enum Residual {
    /// What [`Model::predict`] misses by: seen masks, clamp, f64
    /// difference.
    Predict,
    /// What SGD descends: every term, no clamp, f32 difference.
    Train,
}

/// What a read-ahead reads of a row: both ends of its factors (a k = 10
/// row spans at most two lines) and its bias.
#[inline(always)]
fn row_lines((factors, bias): (&[f32], f32)) -> u32 {
    factors.first().map_or(0, |v| v.to_bits())
        ^ factors.last().map_or(0, |v| v.to_bits())
        ^ bias.to_bits()
}

/// The evaluation sweep: the in-order f64 sum of squared residuals
/// over `data`.
struct ResidualSweep<'a> {
    model: &'a MfModel,
    data: &'a [Rating],
    residual: Residual,
}

impl Sweep for ResidualSweep<'_> {
    type Output = f64;
    #[inline(always)]
    fn run<L: Lanes>(self, lanes: L) -> f64 {
        let m = self.model;
        let mut sum = 0.0f64;
        for r in self.data {
            let e = match self.residual {
                Residual::Predict => {
                    let pred = m.predict_by(r.user, r.item, |x, y| lanes.dot(x, y));
                    f64::from(pred) - f64::from(r.value)
                }
                Residual::Train => {
                    let (xu, bu) = m.users.row(r.user as usize);
                    let (yi, ci) = m.items.row(r.item as usize);
                    let dot = lanes.dot(xu, yi);
                    f64::from(r.value - (m.global_mean + bu + ci + dot))
                }
            };
            sum += e * e;
        }
        sum
    }
}

/// A model's wire bytes split into their parts, checked once — magic,
/// a sane `k` and the exact length — and decoded no further: what
/// [`Model::from_bytes`] decodes and what a merge reads a contributor's
/// rows from ([`Model::view`]), never building the model.
struct Wire<'a> {
    num_users: u32,
    num_items: u32,
    k: usize,
    global_mean: f32,
    users: WireTable<'a>,
    items: WireTable<'a>,
}

/// One table's parts in a model's wire bytes.
#[derive(Clone, Copy)]
struct WireTable<'a> {
    /// One little-endian `f32` per row.
    biases: &'a [u8],
    /// `k` little-endian `f32`s per row.
    factors: &'a [u8],
    /// One bit per row, bit-packed.
    seen: &'a [u8],
}

impl<'a> Wire<'a> {
    fn split(bytes: &'a [u8]) -> Result<Self, ModelCodecError> {
        let mut r = Reader::new(bytes);
        if r.u32()? != MAGIC {
            return Err(ModelCodecError::Malformed("bad magic".into()));
        }
        let num_users = r.u32()?;
        let num_items = r.u32()?;
        let k = r.u32()? as usize;
        if k == 0 || k > 4096 {
            return Err(ModelCodecError::Incompatible(format!("k = {k}")));
        }
        let global_mean = r.f32()?;
        let (nu, ni) = (num_users as usize, num_items as usize);
        let (user_biases, item_biases) = (r.bytes(4 * nu)?, r.bytes(4 * ni)?);
        let (user_factors, item_factors) = (r.bytes(4 * nu * k)?, r.bytes(4 * ni * k)?);
        let (user_seen, item_seen) = (r.bytes(nu.div_ceil(8))?, r.bytes(ni.div_ceil(8))?);
        if r.remaining() != 0 {
            return Err(ModelCodecError::Malformed(format!(
                "{} trailing bytes",
                r.remaining()
            )));
        }
        let table = |biases, factors, seen| WireTable {
            biases,
            factors,
            seen,
        };
        Ok(Wire {
            num_users,
            num_items,
            k,
            global_mean,
            users: table(user_biases, user_factors, user_seen),
            items: table(item_biases, item_factors, item_seen),
        })
    }

    /// [`Wire::split`], refusing a model of another shape than `like`'s.
    fn split_like(bytes: &'a [u8], like: &MfModel) -> Result<Self, ModelCodecError> {
        let wire = Self::split(bytes)?;
        let shape = (wire.num_users, wire.num_items, wire.k);
        if shape != (like.num_users, like.num_items, like.hp.k) {
            return Err(ModelCodecError::Incompatible(format!(
                "model shape {shape:?} vs {}x{} k={}",
                like.num_users, like.num_items, like.hp.k
            )));
        }
        Ok(wire)
    }
}

/// A merge contributor: its global mean and its two tables.
struct Contributor<'a> {
    global_mean: f32,
    users: Table<'a>,
    items: Table<'a>,
}

impl<'a> Contributor<'a> {
    fn of_model(m: &'a MfModel) -> Self {
        Contributor {
            global_mean: m.global_mean,
            users: Table::Store(&m.users),
            items: Table::Store(&m.items),
        }
    }

    fn of_wire(w: Wire<'a>) -> Self {
        Contributor {
            global_mean: w.global_mean,
            users: Table::Wire(w.users),
            items: Table::Wire(w.items),
        }
    }
}

/// One contributor's table as a merge reads it.
#[derive(Clone, Copy)]
enum Table<'a> {
    /// A model's row store.
    Store(&'a RowStore),
    /// A table in a model's wire bytes: every row side by side.
    Wire(WireTable<'a>),
}

impl<'a> Table<'a> {
    #[inline(always)]
    fn seen(self, row: usize) -> bool {
        match self {
            Table::Store(t) => t.seen[row],
            Table::Wire(t) => t.seen[row / 8] & (1 << (row % 8)) != 0,
        }
    }

    /// The first row after `row`, up to `end`, whose seen flag is not
    /// `row`'s (`end` when there is none).
    fn seen_until(self, row: usize, end: usize) -> usize {
        match self {
            Table::Store(t) => seen_until(&t.seen, row, end),
            Table::Wire(t) => {
                let on = self.seen(row);
                let full = if on { 0xFF } else { 0x00 };
                let mut r = row + 1;
                while r < end {
                    if r.is_multiple_of(8) && r + 8 <= end && t.seen[r / 8] == full {
                        r += 8;
                    } else if self.seen(r) != on {
                        return r;
                    } else {
                        r += 1;
                    }
                }
                end
            }
        }
    }

    /// How many rows from `row` on, up to `end`, lie side by side.
    fn run_len(self, row: usize, end: usize) -> usize {
        match self {
            Table::Store(t) => t.run_len(row, end),
            Table::Wire(_) => end - row,
        }
    }

    /// The factors and biases of the `len` rows from `row` on, which lie
    /// side by side.
    fn run(self, row: usize, len: usize, k: usize) -> (Floats<'a>, Floats<'a>) {
        match self {
            Table::Store(t) => {
                let (factors, biases) = t.run(row, len);
                (Floats::F32(factors), Floats::F32(biases))
            }
            Table::Wire(t) => (
                Floats::Le(&t.factors[4 * row * k..4 * (row + len) * k]),
                Floats::Le(&t.biases[4 * row..4 * (row + len)]),
            ),
        }
    }
}

/// The first row after `row`, up to `end`, whose flag is not `row`'s
/// (`end` when there is none).
fn seen_until(seen: &[bool], row: usize, end: usize) -> usize {
    let on = seen[row];
    seen[row + 1..end]
        .iter()
        .position(|&s| s != on)
        .map_or(end, |at| row + 1 + at)
}

/// Merges one table (embedding rows and biases) in place (§III-C2: a
/// row's average takes only the contributors that have seen it, weights
/// renormalised over them; a row nobody has seen keeps its init).
///
/// The table is walked as maximal **row ranges** over which the seen
/// pattern — which of the local table and the contributors have seen
/// the row — is the same. A range's weights are computed once; its rows
/// are taken (a range of rows in the base lands in consecutive slots),
/// then it is split where any table's storage stops being contiguous,
/// and each piece's factors, then its biases, merge as one flat range
/// ([`kernel::merge_range`]). The weights and the per-element op order
/// are the per-row merge's, so the result is bit-identical to it.
#[inline(always)]
fn merge_table(table: &mut RowStore, self_weight: f64, theirs: &[(f64, Table<'_>)], k: usize) {
    let rows = table.rows();
    let mut weights: Vec<(f64, Table<'_>)> = Vec::with_capacity(theirs.len());
    let mut factors = Vec::with_capacity(theirs.len());
    let mut biases = Vec::with_capacity(theirs.len());
    let mut row = 0;
    while row < rows {
        let end = theirs
            .iter()
            .fold(seen_until(&table.seen, row, rows), |end, (_, t)| {
                t.seen_until(row, end)
            });
        let mine = table.seen[row];
        let mut total = if mine { self_weight } else { 0.0 };
        for (w, t) in theirs {
            if t.seen(row) {
                total += w;
            }
        }
        if total <= 0.0 {
            // Nobody has information for these rows: keep the local init.
            row = end;
            continue;
        }
        let inv = 1.0 / total;
        let own = mine.then_some(self_weight * inv);
        weights.clear();
        weights.extend(
            theirs
                .iter()
                .filter(|(_, t)| t.seen(row))
                .map(|&(w, t)| (w * inv, t)),
        );
        for r in row..end {
            table.own(r);
        }
        let mut at = row;
        while at < end {
            let len = weights.iter().fold(table.run_len(at, end), |len, (_, t)| {
                t.run_len(at, at + len)
            });
            factors.clear();
            biases.clear();
            for &(w, t) in &weights {
                let (f, b) = t.run(at, len, k);
                factors.push((w, f));
                biases.push((w, b));
            }
            let (dst_factors, dst_biases) = table.run_mut(at, len);
            kernel::merge_range(dst_factors, own, &factors);
            kernel::merge_range(dst_biases, own, &biases);
            at += len;
        }
        table.seen[row..end].fill(true);
        row = end;
    }
}

/// A whole merge as one kernel sweep: both tables' row ranges run in
/// the dispatch level's frame, where the compiler widens
/// [`kernel::merge_range`]'s flat loops to the level's vectors (on the
/// `ms-model` pair, 84–95 µs per merge in the AVX2 frame against
/// 108–113 µs outside it). The level token goes unused: the loops are
/// vertical, so every width gives the same bits.
struct MergeSweep<'a, 'b> {
    model: &'a mut MfModel,
    self_weight: f64,
    users: &'a [(f64, Table<'b>)],
    items: &'a [(f64, Table<'b>)],
    k: usize,
}

impl Sweep for MergeSweep<'_, '_> {
    type Output = ();
    #[inline(always)]
    fn run<L: Lanes>(self, _lanes: L) {
        merge_table(&mut self.model.users, self.self_weight, self.users, self.k);
        merge_table(&mut self.model.items, self.self_weight, self.items, self.k);
    }
}

impl MfModel {
    /// The one merge body, over contributors read from models or from
    /// wire bytes: [`Model::merge`] and [`Model::merge_views`] both land
    /// here.
    fn merge_from(&mut self, contributions: &[(f64, Contributor<'_>)], self_weight: f64) {
        let weight_sum: f64 = self_weight + contributions.iter().map(|(w, _)| *w).sum::<f64>();
        debug_assert!(
            (weight_sum - 1.0).abs() < 1e-6,
            "merge weights sum to {weight_sum}"
        );

        // Global mean merges unconditionally (every node has one).
        let mut mean = self_weight * f64::from(self.global_mean);
        for (w, c) in contributions {
            mean += w * f64::from(c.global_mean);
        }
        self.global_mean = mean as f32;

        let k = self.hp.k;
        let users: Vec<(f64, Table<'_>)> =
            contributions.iter().map(|(w, c)| (*w, c.users)).collect();
        let items: Vec<(f64, Table<'_>)> =
            contributions.iter().map(|(w, c)| (*w, c.items)).collect();
        kernel::sweep(MergeSweep {
            model: self,
            self_weight,
            users: &users,
            items: &items,
            k,
        });
        self.log.all = true;
        self.touch();
    }
}

impl Model for MfModel {
    fn train_steps(&mut self, data: &[Rating], steps: usize, rng: &mut StdRng) {
        if data.is_empty() {
            return;
        }
        self.train_on(data, (0..steps).map(|_| rng.gen_range(0..data.len())));
    }

    fn train_steps_batched(&mut self, data: &[Rating], steps: usize, rng: &mut StdRng) {
        if data.is_empty() {
            return;
        }
        // Draw exactly the same index sequence train_steps would (the
        // node's RNG consumption must not depend on which path runs),
        // then bucket by user row: the stable sort keeps draw order
        // within a user while the sweep walks the x table front-to-back.
        let mut picks: Vec<u32> = (0..steps)
            .map(|_| rng.gen_range(0..data.len()) as u32)
            .collect();
        picks.sort_by_key(|&idx| data[idx as usize].user);
        self.train_on(data, picks.into_iter().map(|idx| idx as usize));
    }

    fn cells(&self) -> (u32, u32) {
        (self.num_users, self.num_items)
    }

    fn same_shape(&self, other: &Self) -> bool {
        self.num_users == other.num_users
            && self.num_items == other.num_items
            && self.hp.k == other.hp.k
    }

    fn predict(&self, user: u32, item: u32) -> f32 {
        self.predict_by(user, item, kernel::dot)
    }

    fn squared_error(&self, test: &[Rating]) -> f64 {
        kernel::sweep(ResidualSweep {
            model: self,
            data: test,
            residual: Residual::Predict,
        })
    }

    fn merge(&mut self, contributions: &[(f64, &Self)], self_weight: f64) {
        for (_, other) in contributions {
            self.check_compatible(other);
        }
        let contributions: Vec<(f64, Contributor<'_>)> = contributions
            .iter()
            .map(|&(w, m)| (w, Contributor::of_model(m)))
            .collect();
        self.merge_from(&contributions, self_weight);
    }

    /// Checks the bytes once (`Wire::split_like` against this model's
    /// shape) and keeps them: the merge reads the rows where they lie.
    fn view<'a>(&self, bytes: &'a [u8]) -> Result<ModelView<'a, Self>, ModelCodecError> {
        Wire::split_like(bytes, self)?;
        Ok(ModelView::wire(bytes, self.memory_bytes()))
    }

    fn merge_views(&mut self, contributions: &[(f64, &ModelView<'_, Self>)], self_weight: f64) {
        let contributions: Vec<(f64, Contributor<'_>)> = contributions
            .iter()
            .map(|&(w, view)| {
                let c = match view.source() {
                    ViewSource::Wire { bytes, .. } => Contributor::of_wire(
                        Wire::split_like(bytes, self).expect("a view's bytes were validated"),
                    ),
                    ViewSource::Decoded(m) => {
                        self.check_compatible(m);
                        Contributor::of_model(m)
                    }
                };
                (w, c)
            })
            .collect();
        self.merge_from(&contributions, self_weight);
    }

    fn param_count(&self) -> usize {
        (self.num_users as usize + self.num_items as usize) * (self.hp.k + 1)
    }

    fn wire_size(&self) -> usize {
        // header (magic, dims, k) + mean + params + bit-packed masks
        4 + 4
            + 4
            + 4
            + 4
            + self.param_count() * 4
            + (self.num_users as usize).div_ceil(8)
            + (self.num_items as usize).div_ceil(8)
    }

    fn write_bytes(&self, sink: &mut impl ByteSink) {
        self.put_header(sink, MAGIC);
        bytesio::put_f32(sink, self.global_mean);
        self.write_tables(sink);
    }

    fn write_changes(&mut self, sink: &mut impl ByteSink) -> Option<usize> {
        let logged = self.log.users.count() + self.log.items.count();
        let total = (self.num_users + self.num_items) as usize;
        let row_form = !self.log.all && logged * ROW_FORM_UP_TO_ONE_ROW_IN <= total;
        if row_form {
            self.put_header(sink, MAGIC_DELTA);
            bytesio::put_f32(sink, self.global_mean);
            Self::put_delta_section(sink, self.log.users.iter(), &self.users);
            Self::put_delta_section(sink, self.log.items.iter(), &self.items);
        } else {
            self.write_bytes(sink);
        }
        self.log.all = false;
        self.log.users.clear();
        self.log.items.clear();
        row_form.then_some(logged)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, ModelCodecError> {
        let wire = Wire::split(bytes)?;
        let (k, nu, ni) = (wire.k, wire.num_users as usize, wire.num_items as usize);
        let table = |t: WireTable<'_>, rows: usize| -> Result<RowStore, ModelCodecError> {
            Ok(RowStore::owning(
                k,
                Reader::new(t.seen).bool_vec(rows)?,
                Reader::new(t.factors).f32_vec(rows * k)?,
                Reader::new(t.biases).f32_vec(rows)?,
            ))
        };
        Ok(MfModel {
            hp: MfHyperParams {
                k,
                ..MfHyperParams::default()
            },
            num_users: wire.num_users,
            num_items: wire.num_items,
            global_mean: wire.global_mean,
            // A decoded model owns every row.
            users: table(wire.users, nu)?,
            items: table(wire.items, ni)?,
            version: next_factor_stamp(),
            log: WriteLog::everything(nu, ni),
        })
    }

    /// The logical size — every parameter and seen flag, as a dense
    /// enclave-resident model would hold them — whatever this process
    /// shares between clones ([`MfModel::resident_bytes`]).
    fn memory_bytes(&self) -> usize {
        self.param_count() * 4 + (self.num_users + self.num_items) as usize
    }

    /// Fingerprint over the parameter tables and seen masks — the global
    /// mean is deliberately excluded, because every node's reference is
    /// the fleet's shared initialization *except* for its locally derived
    /// mean, and the delta carries the mean explicitly.
    fn ref_fingerprint(&self) -> u64 {
        let mut hash = Fnv1a64::new();
        self.write_tables(&mut hash);
        hash.finish()
    }

    fn delta_bytes(
        &self,
        reference: &Self,
        ref_fingerprint: u64,
        max_density: f64,
    ) -> Option<Vec<u8>> {
        self.check_compatible(reference);
        let k = self.hp.k;
        let users = Self::changed_rows(&self.users, &reference.users);
        let items = Self::changed_rows(&self.items, &reference.items);
        let total_rows = (self.num_users + self.num_items) as usize;
        let density = (users.len() + items.len()) as f64 / total_rows.max(1) as f64;
        if density > max_density {
            return None;
        }
        let mut buf = Vec::with_capacity(32 + (users.len() + items.len()) * (8 + k * 4));
        self.put_header(&mut buf, MAGIC_DELTA);
        bytesio::put_u64(&mut buf, ref_fingerprint);
        bytesio::put_f32(&mut buf, self.global_mean);
        Self::put_delta_section(&mut buf, users.iter().copied(), &self.users);
        Self::put_delta_section(&mut buf, items.iter().copied(), &self.items);
        Some(buf)
    }

    fn apply_delta(
        reference: &Self,
        ref_fingerprint: u64,
        bytes: &[u8],
    ) -> Result<Self, ModelCodecError> {
        let mut r = Reader::new(bytes);
        if r.u32()? != MAGIC_DELTA {
            return Err(ModelCodecError::Malformed("bad delta magic".into()));
        }
        let num_users = r.u32()?;
        let num_items = r.u32()?;
        let k = r.u32()? as usize;
        if num_users != reference.num_users
            || num_items != reference.num_items
            || k != reference.hp.k
        {
            return Err(ModelCodecError::Incompatible(format!(
                "delta shape {num_users}x{num_items} k={k} vs reference {}x{} k={}",
                reference.num_users, reference.num_items, reference.hp.k
            )));
        }
        let fingerprint = r.u64()?;
        if fingerprint != ref_fingerprint {
            return Err(ModelCodecError::Incompatible(format!(
                "delta encoded against reference {fingerprint:#x}, ours is {ref_fingerprint:#x}"
            )));
        }
        let mut model = reference.clone();
        model.global_mean = r.f32()?;
        model.read_delta_sections(&mut r)?;
        // A decoded model is a new one, whatever its reference had logged.
        model.log.all = true;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytesio::fnv1a64;
    use crate::metrics::rmse;
    use rand::SeedableRng;
    use rex_data::SyntheticConfig;

    /// The four parameter tables in wire order — `b`, `c`, `x`, `y` —
    /// gathered dense.
    fn dense(m: &MfModel) -> [Vec<f32>; 4] {
        let biases = |t: &RowStore| (0..t.rows()).map(|r| t.row(r).1).collect();
        let factors = |t: &RowStore| (0..t.rows()).flat_map(|r| t.row(r).0.to_vec()).collect();
        [
            biases(&m.users),
            biases(&m.items),
            factors(&m.users),
            factors(&m.items),
        ]
    }

    fn tiny_data() -> Vec<Rating> {
        SyntheticConfig {
            num_users: 20,
            num_items: 50,
            num_ratings: 600,
            seed: 3,
            ..SyntheticConfig::default()
        }
        .generate()
        .ratings
    }

    #[test]
    fn param_count_matches_paper_shape() {
        // 610 users, 9000 items, k=10: (610+9000)*10 + 610 + 9000 params.
        let m = MfModel::new(610, 9_000, MfHyperParams::default(), 3.5, 0);
        assert_eq!(m.param_count(), (610 + 9_000) * 10 + 610 + 9_000);
        // ~420 KiB on the wire, vs 12 bytes per raw triplet: the 2-orders
        // -of-magnitude gap Fig 2 reports.
        assert!(m.wire_size() > 100_000);
    }

    #[test]
    fn training_reduces_loss_and_rmse() {
        let data = tiny_data();
        let mut m = MfModel::new(20, 50, MfHyperParams::default(), 3.5, 1);
        let before_loss = m.loss(&data);
        let before_rmse = rmse(&m, &data).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..30 {
            m.train_steps(&data, data.len(), &mut rng);
        }
        assert!(m.loss(&data) < before_loss);
        assert!(rmse(&m, &data).unwrap() < before_rmse - 0.05);
    }

    #[test]
    fn batched_training_reduces_loss_and_is_deterministic() {
        let data = tiny_data();
        let run = || {
            let mut m = MfModel::new(20, 50, MfHyperParams::default(), 3.5, 1);
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..30 {
                m.train_steps_batched(&data, data.len(), &mut rng);
            }
            m
        };
        let before = MfModel::new(20, 50, MfHyperParams::default(), 3.5, 1).loss(&data);
        let a = run();
        assert!(a.loss(&data) < before, "batched training must learn");
        assert_eq!(a.to_bytes(), run().to_bytes(), "batched path not seeded");
    }

    #[test]
    fn batched_path_consumes_rng_like_the_sequential_path() {
        // The protocol's determinism contract: a node's RNG state after
        // training must not depend on which path ran — both draw exactly
        // `steps` uniform indices.
        let data = tiny_data();
        let mut seq_rng = StdRng::seed_from_u64(11);
        let mut bat_rng = StdRng::seed_from_u64(11);
        let mut seq = MfModel::new(20, 50, MfHyperParams::default(), 3.5, 1);
        let mut bat = seq.clone();
        seq.train_steps(&data, 137, &mut seq_rng);
        bat.train_steps_batched(&data, 137, &mut bat_rng);
        assert_eq!(
            seq_rng.gen::<u64>(),
            bat_rng.gen::<u64>(),
            "RNG streams diverged between the two training paths"
        );
    }

    #[test]
    fn batched_path_is_bit_identical_on_single_user_data() {
        // Width-1 shards: grouping by user is a no-op, so the batched
        // sweep must replay the sequential update order bit-for-bit.
        let data: Vec<Rating> = tiny_data().into_iter().filter(|r| r.user == 3).collect();
        assert!(data.len() > 5, "need some single-user data");
        let mut seq = MfModel::new(20, 50, MfHyperParams::default(), 3.5, 1);
        let mut bat = seq.clone();
        let mut seq_rng = StdRng::seed_from_u64(5);
        let mut bat_rng = StdRng::seed_from_u64(5);
        seq.train_steps(&data, 200, &mut seq_rng);
        bat.train_steps_batched(&data, 200, &mut bat_rng);
        assert_eq!(seq.to_bytes(), bat.to_bytes());
    }

    #[test]
    fn batched_path_groups_updates_by_ascending_user_row() {
        // Two interleaved users: the batched sweep applies all of user
        // 0's draws before user 1's regardless of draw order, which a
        // deliberately order-sensitive probe can observe — while the
        // same-user subsequences stay in draw order (stable sort).
        let data = vec![
            Rating {
                user: 1,
                item: 0,
                value: 5.0,
            },
            Rating {
                user: 0,
                item: 0,
                value: 1.0,
            },
        ];
        let mut seq = MfModel::new(2, 1, MfHyperParams::default(), 3.0, 9);
        let mut bat = seq.clone();
        let mut seq_rng = StdRng::seed_from_u64(1);
        let mut bat_rng = StdRng::seed_from_u64(1);
        seq.train_steps(&data, 64, &mut seq_rng);
        bat.train_steps_batched(&data, 64, &mut bat_rng);
        // Both saw the same multiset of samples, so both learned both
        // users; the item row (shared) differs because the update order
        // across users changed.
        assert!(bat.has_user(0) && bat.has_user(1));
        assert!(seq.has_user(0) && seq.has_user(1));
        assert_ne!(
            seq.to_bytes(),
            bat.to_bytes(),
            "reordering across users should perturb the shared item row"
        );
    }

    #[test]
    fn sgd_step_matches_finite_difference_gradient() {
        // Check the analytic update direction against numeric d(loss)/d(b_u).
        let r = Rating {
            user: 0,
            item: 0,
            value: 5.0,
        };
        let m = MfModel::new(
            1,
            1,
            MfHyperParams {
                lambda: 0.0,
                ..Default::default()
            },
            3.0,
            2,
        );
        let eps = 1e-3f32;
        let base_loss = m.loss(&[r]);
        let mut bumped = m.clone();
        *bumped.users.row_mut(0).1 += eps;
        let d_num = (bumped.loss(&[r]) - base_loss) / f64::from(eps);
        // Analytic: dJ/db_u = -(r - μ - b_u - c_i - x_u·y_i).
        let (x, (y, c)) = (m.user_factors(0), m.item_row(0));
        let dot: f32 = x.iter().zip(y).map(|(a, b)| a * b).sum();
        let err = f64::from(r.value - (m.global_mean + m.user_bias(0) + c + dot));
        assert!(
            (d_num + err).abs() < 1e-2,
            "numeric {d_num} vs analytic {}",
            -err
        );
    }

    #[test]
    fn predict_clamped_and_falls_back() {
        let m = MfModel::new(5, 5, MfHyperParams::default(), 3.5, 0);
        // Untrained model predicts the global mean for any pair.
        assert_eq!(m.predict(0, 0), 3.5);
        let clamped = MfModel::new(5, 5, MfHyperParams::default(), 99.0, 0);
        assert_eq!(clamped.predict(1, 1), 5.0);
    }

    #[test]
    fn seen_masks_track_training() {
        let mut m = MfModel::new(3, 3, MfHyperParams::default(), 3.5, 0);
        assert!(!m.has_user(1) && !m.has_item(2));
        m.sgd_step(&Rating {
            user: 1,
            item: 2,
            value: 4.0,
        });
        assert!(m.has_user(1) && m.has_item(2));
        assert!(!m.has_user(0) && !m.has_item(0));
    }

    #[test]
    fn codec_roundtrip() {
        let data = tiny_data();
        let mut m = MfModel::new(20, 50, MfHyperParams::default(), 3.5, 1);
        let mut rng = StdRng::seed_from_u64(0);
        m.train_steps(&data, 500, &mut rng);
        let bytes = m.to_bytes();
        assert_eq!(bytes.len(), m.wire_size());
        let back = MfModel::from_bytes(&bytes).unwrap();
        assert_eq!(back.param_count(), m.param_count());
        assert_eq!(dense(&back), dense(&m));
        assert_eq!(back.users.seen, m.users.seen);
        for (u, i) in [(0u32, 0u32), (3, 7), (19, 49)] {
            assert_eq!(back.predict(u, i), m.predict(u, i));
        }
    }

    /// The wire layout written out field by field with the per-element
    /// encoders `to_bytes` used before it became `write_bytes` into a
    /// `Vec`; `tables_only` is the span `ref_fingerprint` hashed.
    fn reference_bytes(m: &MfModel, tables_only: bool) -> Vec<u8> {
        use bytesio::reference;
        let mut buf = Vec::new();
        if !tables_only {
            for word in [MAGIC, m.num_users, m.num_items, m.hp.k as u32] {
                buf.extend_from_slice(&word.to_le_bytes());
            }
            buf.extend_from_slice(&m.global_mean.to_le_bytes());
        }
        for table in dense(m) {
            reference::put_f32_slice(&mut buf, &table);
        }
        reference::put_bool_slice(&mut buf, &m.users.seen);
        reference::put_bool_slice(&mut buf, &m.items.seen);
        buf
    }

    #[test]
    fn streamed_bytes_equal_the_per_element_encoding() {
        let data = tiny_data();
        // Empty tables, seen masks that end mid-byte, and byte-aligned ones.
        for (users, items) in [(0u32, 0u32), (3, 5), (5, 4), (8, 16)] {
            let mut m = MfModel::new(users, items, MfHyperParams::default(), 3.25, 11);
            let in_range: Vec<Rating> = data
                .iter()
                .filter(|r| r.user < users && r.item < items)
                .copied()
                .collect();
            if !in_range.is_empty() {
                m.train_steps(&in_range, 40, &mut StdRng::seed_from_u64(3));
            }
            let want = reference_bytes(&m, false);
            let mut streamed = Vec::new();
            m.write_bytes(&mut streamed);
            assert_eq!(streamed, want, "{users}x{items}");
            assert_eq!(m.to_bytes(), want, "{users}x{items}");
            assert_eq!(m.wire_size(), want.len(), "{users}x{items}");
            assert_eq!(
                m.ref_fingerprint(),
                bytesio::fnv1a64(&reference_bytes(&m, true)),
                "{users}x{items}"
            );
        }
    }

    #[test]
    fn codec_rejects_garbage() {
        assert!(MfModel::from_bytes(&[1, 2, 3]).is_err());
        let m = MfModel::new(2, 2, MfHyperParams::default(), 3.5, 0);
        let mut bytes = m.to_bytes();
        bytes.push(0); // trailing garbage
        assert!(MfModel::from_bytes(&bytes).is_err());
        let mut bad_magic = m.to_bytes();
        bad_magic[0] ^= 0xff;
        assert!(MfModel::from_bytes(&bad_magic).is_err());
    }

    #[test]
    fn merge_average_of_two() {
        let mut a = MfModel::new(2, 2, MfHyperParams::default(), 3.0, 0);
        let mut b = MfModel::new(2, 2, MfHyperParams::default(), 4.0, 0);
        // a trains user 0, b trains user 1.
        a.sgd_step(&Rating {
            user: 0,
            item: 0,
            value: 5.0,
        });
        b.sgd_step(&Rating {
            user: 1,
            item: 1,
            value: 1.0,
        });
        let b_bias_u1 = b.user_bias(1);
        let a_bias_u0 = a.user_bias(0);
        a.merge(&[(0.5, &b)], 0.5);
        // Mean averaged.
        assert!((a.global_mean - 3.5).abs() < 1e-6);
        // Row seen only by b: copied from b (renormalized weight 1).
        assert!((a.user_bias(1) - b_bias_u1).abs() < 1e-6);
        assert!(a.has_user(1));
        // Row seen only by a: kept.
        assert!((a.user_bias(0) - a_bias_u0).abs() < 1e-6);
        assert!(a.has_user(0));
    }

    #[test]
    fn merge_weighted_rows_seen_by_both() {
        let mut a = MfModel::new(1, 1, MfHyperParams::default(), 3.0, 0);
        let mut b = MfModel::new(1, 1, MfHyperParams::default(), 3.0, 0);
        a.sgd_step(&Rating {
            user: 0,
            item: 0,
            value: 5.0,
        });
        b.sgd_step(&Rating {
            user: 0,
            item: 0,
            value: 1.0,
        });
        let expected = 0.25 * a.user_bias(0) + 0.75 * b.user_bias(0);
        a.merge(&[(0.75, &b)], 0.25);
        assert!((a.user_bias(0) - expected).abs() < 1e-6);
    }

    #[test]
    fn merge_ignores_unseen_contributors() {
        let mut a = MfModel::new(1, 1, MfHyperParams::default(), 3.0, 0);
        a.sgd_step(&Rating {
            user: 0,
            item: 0,
            value: 5.0,
        });
        let fresh = MfModel::new(1, 1, MfHyperParams::default(), 3.0, 99);
        let a_b0 = a.user_bias(0);
        let a_x = dense(&a)[2].clone();
        a.merge(&[(0.5, &fresh)], 0.5);
        // fresh never saw user 0 -> a's row must be untouched.
        assert!((a.user_bias(0) - a_b0).abs() < 1e-6);
        assert_eq!(dense(&a)[2], a_x);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn merge_rejects_mismatched_dims() {
        let mut a = MfModel::new(2, 2, MfHyperParams::default(), 3.0, 0);
        let b = MfModel::new(3, 2, MfHyperParams::default(), 3.0, 0);
        a.merge(&[(0.5, &b)], 0.5);
    }

    #[test]
    fn delta_roundtrip_is_bit_exact() {
        let reference = MfModel::new(20, 50, MfHyperParams::default(), 3.5, 1);
        let fp = reference.ref_fingerprint();
        let mut m = reference.clone();
        m.set_global_mean(2.75);
        let mut rng = StdRng::seed_from_u64(9);
        m.train_steps(&tiny_data(), 40, &mut rng);
        let delta = m.delta_bytes(&reference, fp, 1.0).expect("delta encodes");
        let back = MfModel::apply_delta(&reference, fp, &delta).unwrap();
        // Reconstruction is bit-exact: the full dense serializations agree.
        assert_eq!(back.to_bytes(), m.to_bytes());
        // And the delta beats the dense wire form for this few-rows case.
        assert!(
            delta.len() < m.wire_size(),
            "{} vs {}",
            delta.len(),
            m.wire_size()
        );
    }

    #[test]
    fn empty_delta_carries_only_the_mean() {
        let reference = MfModel::new(8, 8, MfHyperParams::default(), 3.5, 4);
        let fp = reference.ref_fingerprint();
        let mut m = reference.clone();
        m.set_global_mean(4.25);
        let delta = m
            .delta_bytes(&reference, fp, 0.0)
            .expect("zero rows changed");
        let back = MfModel::apply_delta(&reference, fp, &delta).unwrap();
        assert_eq!(back.to_bytes(), m.to_bytes());
        // header (4 u32 + u64 + f32) + two zero-count sections.
        assert_eq!(delta.len(), 16 + 8 + 4 + 2 * 4);
    }

    #[test]
    fn dense_fallback_when_density_crosses_threshold() {
        let reference = MfModel::new(4, 4, MfHyperParams::default(), 3.5, 4);
        let fp = reference.ref_fingerprint();
        let mut m = reference.clone();
        // Touch one user row + one item row: density 2/8 = 0.25.
        m.sgd_step(&Rating {
            user: 1,
            item: 2,
            value: 4.0,
        });
        assert!(m.delta_bytes(&reference, fp, 0.25).is_some());
        assert!(m.delta_bytes(&reference, fp, 0.2499).is_none());
    }

    #[test]
    fn delta_rejects_wrong_reference_and_garbage() {
        let reference = MfModel::new(8, 8, MfHyperParams::default(), 3.5, 4);
        let fp = reference.ref_fingerprint();
        let mut m = reference.clone();
        m.sgd_step(&Rating {
            user: 0,
            item: 0,
            value: 5.0,
        });
        let delta = m.delta_bytes(&reference, fp, 1.0).unwrap();
        // A reference with different parameters has a different
        // fingerprint: decode must refuse, not corrupt.
        let other = MfModel::new(8, 8, MfHyperParams::default(), 3.5, 99);
        let other_fp = other.ref_fingerprint();
        assert_ne!(fp, other_fp);
        assert!(matches!(
            MfModel::apply_delta(&other, other_fp, &delta),
            Err(ModelCodecError::Incompatible(_))
        ));
        // Same parameters but a different local mean: same fingerprint —
        // deltas are exchangeable across nodes by design.
        let mut mean_shifted = reference.clone();
        mean_shifted.set_global_mean(1.0);
        assert_eq!(mean_shifted.ref_fingerprint(), fp);
        assert!(MfModel::apply_delta(&mean_shifted, fp, &delta).is_ok());
        // Truncations and tag garbage fail cleanly.
        for cut in 0..delta.len() {
            assert!(
                MfModel::apply_delta(&reference, fp, &delta[..cut]).is_err(),
                "prefix {cut} accepted"
            );
        }
        let mut bad = delta.clone();
        bad[0] ^= 0xff;
        assert!(MfModel::apply_delta(&reference, fp, &bad).is_err());
    }

    fn record(m: &mut MfModel) -> (Option<usize>, Vec<u8>) {
        let mut bytes = Vec::new();
        (m.write_changes(&mut bytes), bytes)
    }

    #[test]
    fn change_record_takes_the_row_form_up_to_a_quarter_of_the_rows() {
        let step = |user, item| Rating {
            user,
            item,
            value: 4.0,
        };
        // 8 rows: up to 2 logged rows travel as rows.
        let mut m = MfModel::new(4, 4, MfHyperParams::default(), 3.5, 4);
        let mut replay = m.clone();
        // Nobody has recorded from a new model: its record is the model.
        assert_eq!(record(&mut m), (None, m.to_bytes()));

        m.sgd_step(&step(1, 2));
        m.sgd_step(&step(1, 2));
        m.set_global_mean(2.5);
        let (rows, bytes) = record(&mut m);
        assert_eq!(rows, Some(2));
        // Header, mean, then per table: count, id, flag byte, bias + row.
        assert_eq!(bytes.len(), 16 + 4 + 2 * (4 + 4 + 1 + 4 + 40));
        assert_eq!(&bytes[..4], &MAGIC_DELTA.to_le_bytes());
        replay.apply_changes(&bytes).unwrap();
        assert_eq!(replay.to_bytes(), m.to_bytes());

        // Three rows are past the quarter; so is anything after a merge.
        m.sgd_step(&step(0, 2));
        m.sgd_step(&step(3, 2));
        assert_eq!(record(&mut m), (None, m.to_bytes()));
        let other = MfModel::new(4, 4, MfHyperParams::default(), 3.5, 5);
        m.merge(&[(0.5, &other)], 0.5);
        assert_eq!(record(&mut m), (None, m.to_bytes()));
        replay.apply_changes(&m.to_bytes()).unwrap();
        assert_eq!(replay.to_bytes(), m.to_bytes());
        assert_eq!(replay.hyper_params(), m.hyper_params());

        // The log is in memory only, and too small to account.
        assert_eq!(m.memory_bytes(), other.memory_bytes());
    }

    #[test]
    fn apply_changes_rejects_foreign_shapes_truncations_and_garbage() {
        let mut m = MfModel::new(8, 8, MfHyperParams::default(), 3.5, 4);
        record(&mut m);
        m.sgd_step(&Rating {
            user: 0,
            item: 7,
            value: 5.0,
        });
        let (rows, bytes) = record(&mut m);
        assert_eq!(rows, Some(2));
        let base = MfModel::new(8, 8, MfHyperParams::default(), 3.5, 4);
        for cut in 0..bytes.len() {
            assert!(
                base.clone().apply_changes(&bytes[..cut]).is_err(),
                "prefix {cut} accepted"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(base.clone().apply_changes(&trailing).is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(base.clone().apply_changes(&bad_magic).is_err());
        // A record of another shape, in either form.
        let mut wide = MfModel::new(8, 9, MfHyperParams::default(), 3.5, 4);
        for record in [bytes, m.to_bytes()] {
            assert!(matches!(
                wide.apply_changes(&record),
                Err(ModelCodecError::Incompatible(_))
            ));
        }
    }

    #[test]
    fn factor_version_changes_on_every_mutation_path() {
        let data = tiny_data();
        let mut m = MfModel::new(20, 50, MfHyperParams::default(), 3.5, 1);
        let v0 = m.factor_version();

        // Clone preserves the stamp: a clone is bit-identical.
        let clone = m.clone();
        assert_eq!(clone.factor_version(), v0);

        // Every mutation path re-stamps.
        m.sgd_step(&data[0]);
        let v1 = m.factor_version();
        assert_ne!(v1, v0, "sgd_step must invalidate");
        m.set_global_mean(3.75);
        let v2 = m.factor_version();
        assert_ne!(v2, v1, "set_global_mean must invalidate");
        let other = MfModel::new(20, 50, MfHyperParams::default(), 3.5, 2);
        m.merge(&[(0.5, &other)], 0.5);
        let v3 = m.factor_version();
        assert_ne!(v3, v2, "merge must invalidate");
        let mut rng = StdRng::seed_from_u64(4);
        m.train_steps_batched(&data, 10, &mut rng);
        assert_ne!(m.factor_version(), v3, "batched training must invalidate");

        // Codec reconstructions are distinct objects: fresh stamps, so a
        // cache keyed on another model's version can never alias them.
        let decoded = MfModel::from_bytes(&m.to_bytes()).unwrap();
        assert_ne!(decoded.factor_version(), m.factor_version());
        let fp = clone.ref_fingerprint();
        let delta = m.delta_bytes(&clone, fp, 1.0).unwrap();
        let applied = MfModel::apply_delta(&clone, fp, &delta).unwrap();
        assert_ne!(applied.factor_version(), clone.factor_version());

        // The stamp is process-unique: two different models never share.
        let a = MfModel::new(2, 2, MfHyperParams::default(), 3.0, 0);
        let b = MfModel::new(2, 2, MfHyperParams::default(), 3.0, 0);
        assert_ne!(a.factor_version(), b.factor_version());
    }

    #[test]
    fn factor_accessors_expose_the_predict_inputs() {
        let data = tiny_data();
        let mut m = MfModel::new(20, 50, MfHyperParams::default(), 3.5, 1);
        let mut rng = StdRng::seed_from_u64(3);
        m.train_steps(&data, 400, &mut rng);
        assert_eq!(m.num_users(), 20);
        assert_eq!(m.num_items(), 50);
        let k = m.hyper_params().k;
        assert_eq!(m.item_factors().len(), 50 * k);
        assert_eq!(m.item_row(49).0.len(), k);
        assert_eq!(m.item_seen_mask().len(), 50);
        // Recomposing predict() from the accessors matches it bit-for-bit.
        for (u, i) in [(0u32, 0u32), (3, 7), (19, 49)] {
            let mut score = m.global_mean();
            if m.has_user(u) {
                score += m.user_bias(u);
            }
            if m.has_item(i) {
                score += m.item_row(i).1;
            }
            if m.has_user(u) && m.has_item(i) {
                let yi = &m.item_factors()[i as usize * k..(i as usize + 1) * k];
                let dot: f32 = m.user_factors(u).iter().zip(yi).map(|(a, b)| a * b).sum();
                score += dot;
            }
            assert_eq!(score.clamp(0.5, 5.0).to_bits(), m.predict(u, i).to_bits());
        }
        assert_eq!(
            m.item_seen_mask().iter().filter(|&&s| s).count(),
            (0..50).filter(|&i| m.has_item(i)).count()
        );
    }

    #[test]
    fn identical_inits_across_nodes() {
        let a = MfModel::new(4, 4, MfHyperParams::default(), 3.5, 42);
        let b = MfModel::new(4, 4, MfHyperParams::default(), 3.5, 42);
        assert_eq!(dense(&a), dense(&b));
    }

    #[test]
    fn wire_size_scales_linearly_with_k() {
        // Fig 3: MS network load grows linearly in the embedding size.
        let sizes: Vec<usize> = [10usize, 20, 30, 40, 50]
            .iter()
            .map(|&k| {
                MfModel::new(
                    100,
                    500,
                    MfHyperParams {
                        k,
                        ..Default::default()
                    },
                    3.5,
                    0,
                )
                .wire_size()
            })
            .collect();
        let d1 = sizes[1] - sizes[0];
        for w in sizes.windows(2) {
            assert_eq!(w[1] - w[0], d1, "non-linear growth: {sizes:?}");
        }
    }

    #[test]
    fn a_clone_owns_no_row_until_a_step_takes_two() {
        let init = MfModel::new(8, 8, MfHyperParams::default(), 3.5, 4);
        let mut clone = init.clone();
        assert!(clone.users.shares_base_with(&init.users));
        assert!(clone.items.shares_base_with(&init.items));
        assert_eq!(clone.users.owned() + clone.items.owned(), 0);
        assert!(matches!(clone.item_factors(), Cow::Borrowed(_)));
        clone.sgd_step(&Rating {
            user: 3,
            item: 5,
            value: 4.0,
        });
        assert_eq!((clone.users.owned(), clone.items.owned()), (1, 1));
        // Item 5 now lies in the overlay, between base rows: gathered.
        let gathered = clone.item_factors();
        assert!(matches!(gathered, Cow::Owned(_)));
        assert_eq!(&gathered[5 * 10..6 * 10], clone.item_row(5).0);
        let mut owning = clone.clone();
        owning.own_all_rows();
        assert!(matches!(owning.item_factors(), Cow::Borrowed(_)));
        assert_eq!(owning.item_factors(), gathered);
        assert_eq!(init.users.owned() + init.items.owned(), 0);
        // The logical size is the dense model's, whatever is shared.
        assert_eq!(clone.memory_bytes(), init.memory_bytes());
        assert!(clone.resident_bytes() > init.resident_bytes());
        assert_eq!(init.base_bytes(), (8 + 8) * (10 + 1) * 4);
    }

    /// Every cell of a 12 × 40 model, rated.
    fn grid() -> Vec<Rating> {
        (0..12u32)
            .flat_map(|user| {
                (0..40u32).map(move |item| Rating {
                    user,
                    item,
                    value: 0.5 + ((user * 7 + item * 3) % 10) as f32 * 0.5,
                })
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// A model that reads unwritten rows from the init its clones
        /// share and one that owns every row from the start (the same
        /// init, decoded) stay the same model under any sequence of
        /// writes: equal wire bytes, change records and squared error,
        /// bit for bit. And what is written through a clone reaches
        /// neither its siblings nor the shared init.
        #[test]
        fn shared_and_owned_rows_make_the_same_model(
            ops in proptest::collection::vec((0u8..7, proptest::arbitrary::any::<u64>()), 1..24)
        ) {
            use proptest::prop_assert_eq;
            let init = MfModel::new(12, 40, MfHyperParams::default(), 3.5, 5);
            let init_bytes = init.to_bytes();
            let owning_init = MfModel::from_bytes(&init_bytes).unwrap();
            prop_assert_eq!(owning_init.users.owned() + owning_init.items.owned(), 12 + 40);
            let fp = init.ref_fingerprint();
            let (mut shared, mut owning) = (init.clone(), owning_init.clone());
            let data = grid();
            let test: Vec<Rating> = data.iter().step_by(7).copied().collect();
            for (op, seed) in ops {
                let mut rng = StdRng::seed_from_u64(seed);
                let rating = data[rng.gen_range(0..data.len())];
                match op {
                    0 => {
                        shared.sgd_step(&rating);
                        owning.sgd_step(&rating);
                    }
                    1 => {
                        let steps = rng.gen_range(1..200);
                        shared.train_steps(&data, steps, &mut StdRng::seed_from_u64(seed));
                        owning.train_steps(&data, steps, &mut StdRng::seed_from_u64(seed));
                    }
                    2 => {
                        let mut peer = init.clone();
                        peer.train_steps(&data, 60, &mut rng);
                        let w = rng.gen_range(0.1..0.9);
                        shared.merge(&[(1.0 - w, &peer)], w);
                        owning.merge(&[(1.0 - w, &peer)], w);
                    }
                    3 => {
                        let mut source = shared.clone();
                        source.write_changes(&mut Vec::new());
                        source.train_steps(&data, rng.gen_range(1..12), &mut rng);
                        let mut record = Vec::new();
                        source.write_changes(&mut record);
                        shared.apply_changes(&record).unwrap();
                        owning.apply_changes(&record).unwrap();
                    }
                    4 => {
                        let delta = shared.delta_bytes(&init, fp, 1.0).unwrap();
                        prop_assert_eq!(&delta, &owning.delta_bytes(&owning_init, fp, 1.0).unwrap());
                        shared = MfModel::apply_delta(&init, fp, &delta).unwrap();
                        owning = MfModel::apply_delta(&owning_init, fp, &delta).unwrap();
                    }
                    5 => {
                        let mean = rng.gen_range(1.0..4.5);
                        shared.set_global_mean(mean);
                        owning.set_global_mean(mean);
                    }
                    _ => {
                        let before = (shared.to_bytes(), owning.to_bytes());
                        let (mut shared_twin, mut owning_twin) = (shared.clone(), owning.clone());
                        shared_twin.sgd_step(&rating);
                        owning_twin.sgd_step(&rating);
                        prop_assert_eq!(shared_twin.to_bytes(), owning_twin.to_bytes());
                        prop_assert_eq!((shared.to_bytes(), owning.to_bytes()), before);
                    }
                }
                prop_assert_eq!(shared.to_bytes(), owning.to_bytes());
                let (mut shared_record, mut owning_record) = (Vec::new(), Vec::new());
                prop_assert_eq!(
                    shared.write_changes(&mut shared_record),
                    owning.write_changes(&mut owning_record)
                );
                prop_assert_eq!(shared_record, owning_record);
                prop_assert_eq!(
                    shared.squared_error(&test).to_bits(),
                    owning.squared_error(&test).to_bits()
                );
            }
            prop_assert_eq!(init.to_bytes(), init_bytes.clone());
            prop_assert_eq!(owning_init.to_bytes(), init_bytes);
        }
    }

    /// The per-row merge the row-range one replaced, kept as its
    /// reference: per row, three seen lookups per contributor, then a
    /// `k`-wide accumulate per contributor that has seen the row.
    fn merge_table_per_row(
        table: &mut RowStore,
        self_weight: f64,
        contributions: &[(f64, &MfModel)],
        select: impl Fn(&MfModel) -> &RowStore,
        scratch: &mut [f64],
    ) {
        for row in 0..table.rows() {
            let mut total = if table.seen[row] { self_weight } else { 0.0 };
            for (w, m) in contributions {
                if select(m).seen[row] {
                    total += w;
                }
            }
            if total <= 0.0 {
                continue;
            }
            let inv = 1.0 / total;
            scratch.iter_mut().for_each(|a| *a = 0.0);
            let mut bias_acc = 0.0f64;
            if table.seen[row] {
                let w = self_weight * inv;
                let (factors, bias) = table.row(row);
                kernel::scale_add(scratch, w, factors);
                bias_acc += w * f64::from(bias);
            }
            for (wc, m) in contributions {
                let theirs = select(m);
                if theirs.seen[row] {
                    let w = wc * inv;
                    let (factors, bias) = theirs.row(row);
                    kernel::scale_add(scratch, w, factors);
                    bias_acc += w * f64::from(bias);
                }
            }
            let (factors, bias) = table.row_mut(row);
            for (dst, acc) in factors.iter_mut().zip(scratch.iter()) {
                *dst = *acc as f32;
            }
            *bias = bias_acc as f32;
            table.seen[row] = true;
        }
    }

    fn merge_per_row(m: &mut MfModel, contributions: &[(f64, &MfModel)], self_weight: f64) {
        let mut mean = self_weight * f64::from(m.global_mean);
        for (w, c) in contributions {
            mean += w * f64::from(c.global_mean);
        }
        m.global_mean = mean as f32;
        let mut scratch = vec![0.0f64; m.hp.k];
        merge_table_per_row(
            &mut m.users,
            self_weight,
            contributions,
            |c| &c.users,
            &mut scratch,
        );
        merge_table_per_row(
            &mut m.items,
            self_weight,
            contributions,
            |c| &c.items,
            &mut scratch,
        );
    }

    /// A value from the merge's awkward corners: ±0, subnormals, and
    /// ordinary floats of either sign.
    fn awkward(rng: &mut StdRng) -> f32 {
        match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(rng.gen_range(1..0x0080_0000)),
            3 => -f32::from_bits(rng.gen_range(1..0x0080_0000)),
            _ => rng.gen_range(-2.0f32..2.0),
        }
    }

    /// A random model whose rows lie in one of the three layouts a row
    /// store has: every row in the base, every row owned in row order,
    /// or a random subset owned in scattered slots. Seen flags are drawn
    /// at a random density.
    fn layout_case(rng: &mut StdRng, nu: u32, ni: u32, k: usize) -> MfModel {
        let hp = MfHyperParams {
            k,
            ..MfHyperParams::default()
        };
        let mut m = MfModel::new(nu, ni, hp, rng.gen_range(1.0..4.5), 0);
        let mut draw = || awkward(rng);
        m.users = RowStore::drawn(nu as usize, k, &mut draw);
        m.items = RowStore::drawn(ni as usize, k, &mut draw);
        let density = [0.0, 0.3, 0.7, 1.0][rng.gen_range(0..4usize)];
        for table in [&mut m.users, &mut m.items] {
            for seen in table.seen.iter_mut() {
                *seen = rng.gen_bool(density);
            }
            match rng.gen_range(0..3) {
                0 => {}
                1 => table.own_all(),
                _ => {
                    let mut rows: Vec<usize> = (0..table.rows()).collect();
                    for i in (1..rows.len()).rev() {
                        rows.swap(i, rng.gen_range(0..=i));
                    }
                    rows.truncate(rng.gen_range(0..=rows.len()));
                    for r in rows {
                        let (factors, bias) = table.row_mut(r);
                        factors.iter_mut().for_each(|v| *v = awkward(rng));
                        *bias = awkward(rng);
                    }
                }
            }
        }
        m
    }

    #[test]
    fn row_range_and_view_merges_equal_the_per_row_merge_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x3E26E);
        for case in 0..300 {
            let (nu, ni) = (rng.gen_range(1..40), rng.gen_range(1..70));
            let k = [1, 3, 10, 17][rng.gen_range(0..4usize)];
            let local = layout_case(&mut rng, nu, ni, k);
            let peers: Vec<MfModel> = (0..rng.gen_range(1..=4))
                .map(|_| layout_case(&mut rng, nu, ni, k))
                .collect();
            let bytes: Vec<Vec<u8>> = peers.iter().map(MfModel::to_bytes).collect();
            let views: Vec<ModelView<'_, MfModel>> =
                bytes.iter().map(|b| local.view(b).unwrap()).collect();
            let (mut reference, mut merged, mut from_views) =
                (local.clone(), local.clone(), local.clone());
            if rng.gen_bool(0.5) {
                // RMW: each model averaged in, in arrival order.
                for (peer, view) in peers.iter().zip(&views) {
                    merge_per_row(&mut reference, &[(0.5, peer)], 0.5);
                    merged.merge(&[(0.5, peer)], 0.5);
                    from_views.merge_views(&[(0.5, view)], 0.5);
                }
            } else {
                // D-PSGD: every model in one call.
                let weights: Vec<f64> = peers.iter().map(|_| rng.gen_range(0.01..0.24)).collect();
                let self_weight = 1.0 - weights.iter().sum::<f64>();
                let models: Vec<(f64, &MfModel)> = weights.iter().copied().zip(&peers).collect();
                merge_per_row(&mut reference, &models, self_weight);
                merged.merge(&models, self_weight);
                let views: Vec<(f64, &ModelView<'_, MfModel>)> =
                    weights.iter().copied().zip(&views).collect();
                from_views.merge_views(&views, self_weight);
            }
            assert_eq!(merged.to_bytes(), reference.to_bytes(), "case {case}");
            assert_eq!(from_views.to_bytes(), reference.to_bytes(), "case {case}");
        }
    }

    #[test]
    fn a_bad_view_is_refused_before_any_row_is_written() {
        let mut rng = StdRng::seed_from_u64(7);
        let local = layout_case(&mut rng, 12, 30, 10);
        let digest = fnv1a64(&local.to_bytes());
        let good = layout_case(&mut rng, 12, 30, 10).to_bytes();
        let mut trailing = good.clone();
        trailing.push(0);
        let other_shape = layout_case(&mut rng, 12, 31, 10).to_bytes();
        let other_k = layout_case(&mut rng, 12, 30, 9).to_bytes();
        for bad in [
            &good[..good.len() - 1],
            &good[..20],
            &trailing[..],
            &other_shape[..],
            &other_k[..],
        ] {
            assert!(
                local.view(bad).is_err(),
                "a {}-byte view accepted",
                bad.len()
            );
        }
        assert_eq!(fnv1a64(&local.to_bytes()), digest);
        assert_eq!(
            local.view(&good).unwrap().memory_bytes(),
            local.memory_bytes()
        );
    }
}

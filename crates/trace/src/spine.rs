//! The spine: an LSM-like trace of immutable batches with amortized merging.
//!
//! A [`Spine`] is the index half of an arrangement (paper §4.2): an append-only logical
//! list of batches, physically maintained as a small number of layers by merging adjacent
//! batches of comparable size. Merges are *amortized*: each newly introduced batch
//! contributes a bounded amount of effort to every in-progress merge, so the worker thread
//! is never blocked on one large merge (the "Amortized trace maintenance" paragraph and
//! the Fig. 6e microbenchmark).
//!
//! The spine also tracks the *logical compaction frontier* (`since`): the lower bound of
//! all reader frontiers. Merges advance update times to this frontier and consolidate
//! updates that become indistinguishable, the analogue of MVCC vacuuming.

use crate::cursor::CursorList;
use crate::{Batch, Merger};
use kpg_timestamp::{Antichain, AntichainRef, Timestamp};

/// How much merge effort the spine applies per introduced batch.
///
/// The paper observes (§6.5, Fig. 6e) that eager merging trades latency for throughput,
/// while lazy merging keeps more batches open and shifts the latency distribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeEffort {
    /// Complete every merge as soon as it is initiated.
    Eager,
    /// Apply a proportionality constant of four per introduced update.
    ///
    /// The paper's charging argument shows a constant of two suffices for merges to
    /// complete before their results are next required; we default to four to leave
    /// headroom for the per-key granularity of our mergers.
    Default,
    /// Apply a proportionality constant of one per introduced update.
    Lazy,
}

impl MergeEffort {
    fn fuel_for(&self, batch_len: usize) -> isize {
        match self {
            MergeEffort::Eager => isize::MAX,
            MergeEffort::Default => (4 * batch_len + 64) as isize,
            MergeEffort::Lazy => (batch_len + 16) as isize,
        }
    }
}

enum Layer<B: Batch> {
    /// A settled batch.
    Single(B),
    /// Two abutting batches being merged, with the in-progress merger.
    Merging(B, B, B::Merger),
    /// Transient placeholder installed while a layer's contents are moved out by value.
    /// Never observable outside [`Spine::apply_fuel`] / [`Spine::consider_merges`]; it
    /// exists so extraction does not have to allocate an empty batch.
    Taken,
}

impl<B: Batch> Layer<B> {
    fn len(&self) -> usize {
        match self {
            Layer::Single(batch) => batch.len(),
            Layer::Merging(a, b, _) => a.len() + b.len(),
            Layer::Taken => unreachable!("transient layer observed"),
        }
    }
}

/// An LSM-like trace of immutable batches with amortized merging and logical compaction.
pub struct Spine<B: Batch> {
    /// Layers ordered from oldest (largest) to newest (smallest).
    layers: Vec<Layer<B>>,
    since: Antichain<B::Time>,
    upper: Antichain<B::Time>,
    effort: MergeEffort,
    /// Count of updates ever introduced, for reporting.
    inserted: usize,
}

impl<B: Batch> Spine<B> {
    /// An empty spine with the given merge effort.
    pub fn new(effort: MergeEffort) -> Self {
        Spine {
            layers: Vec::new(),
            since: Antichain::from_elem(B::Time::minimum()),
            upper: Antichain::from_elem(B::Time::minimum()),
            effort,
            inserted: 0,
        }
    }

    /// The logical compaction frontier: accumulations are correct only at times in
    /// advance of this frontier.
    pub fn since(&self) -> AntichainRef<'_, B::Time> {
        self.since.borrow()
    }

    /// The upper frontier of batches absorbed so far.
    pub fn upper(&self) -> AntichainRef<'_, B::Time> {
        self.upper.borrow()
    }

    /// The merge effort configuration.
    pub fn effort(&self) -> MergeEffort {
        self.effort
    }

    /// The number of physical layers currently held (settled or merging).
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The number of physical batches currently held (a merging layer holds two).
    pub fn batch_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                Layer::Single(_) => 1,
                Layer::Merging(..) => 2,
                Layer::Taken => unreachable!("transient layer observed"),
            })
            .sum()
    }

    /// The number of updates currently held across all batches.
    pub fn len(&self) -> usize {
        self.layers.iter().map(|l| l.len()).sum()
    }

    /// True iff the spine holds no updates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The total number of updates ever inserted (before compaction).
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    /// Applies `logic` to every batch, oldest first.
    pub fn map_batches(&self, mut logic: impl FnMut(&B)) {
        for layer in self.layers.iter() {
            match layer {
                Layer::Single(batch) => logic(batch),
                Layer::Merging(a, b, _) => {
                    logic(a);
                    logic(b);
                }
                Layer::Taken => unreachable!("transient layer observed"),
            }
        }
    }

    /// A cursor over the union of all batches in the spine.
    pub fn cursor(&self) -> CursorList<B::Cursor> {
        let mut cursors = Vec::with_capacity(self.layers.len() + 1);
        for layer in self.layers.iter() {
            match layer {
                Layer::Single(batch) => cursors.push(batch.cursor()),
                Layer::Merging(a, b, _) => {
                    cursors.push(a.cursor());
                    cursors.push(b.cursor());
                }
                Layer::Taken => unreachable!("transient layer observed"),
            }
        }
        CursorList::new(cursors)
    }

    /// Advances the logical compaction frontier.
    ///
    /// The caller (the arrangement's trace-handle bookkeeping) must pass the lower bound
    /// of all reader frontiers; future merges will advance times to this frontier and
    /// consolidate. The frontier may only advance.
    pub fn set_logical_compaction(&mut self, frontier: AntichainRef<'_, B::Time>) {
        debug_assert!(
            frontier.iter().all(|t| self.since.less_equal(t)) || self.since.is_empty(),
            "logical compaction frontier may only advance: {:?} -> {:?}",
            self.since,
            frontier.elements(),
        );
        self.since = frontier.to_owned();
    }

    /// Inserts a batch. The batch's lower frontier must equal the spine's current upper.
    pub fn insert(&mut self, batch: B) {
        assert!(
            batch.description().lower().same_as(&self.upper),
            "batch must abut the spine: batch.lower = {:?}, spine.upper = {:?}",
            batch.description().lower(),
            self.upper,
        );
        self.upper = batch.description().upper().clone();
        self.inserted += batch.len();
        let fuel_basis = batch.len();
        self.layers.push(Layer::Single(batch));
        self.maintain(fuel_basis);
    }

    /// Applies additional merge effort, as if a batch of `effort_basis` updates had been
    /// introduced. Useful for making progress on merges while otherwise idle.
    pub fn exert(&mut self, effort_basis: usize) {
        self.maintain(effort_basis);
    }

    /// Starts eligible merges and fuels in-progress ones, looping while completions make
    /// further merges eligible. This single path serves every effort level: `Eager` fuel
    /// is unbounded, so the loop drives all merges (including transitively enabled ones)
    /// to completion; bounded efforts stop as soon as a fuel application completes
    /// nothing, leaving the remainder for later introductions.
    fn maintain(&mut self, effort_basis: usize) {
        loop {
            self.consider_merges();
            if !self.apply_fuel(effort_basis) {
                break;
            }
        }
    }

    /// Gives every in-progress merge its share of fuel; installs completed merges.
    /// Returns true iff at least one merge completed.
    fn apply_fuel(&mut self, batch_len: usize) -> bool {
        let mut completed = false;
        for layer in self.layers.iter_mut() {
            if let Layer::Merging(a, b, merger) = layer {
                let mut fuel = self.effort.fuel_for(batch_len);
                merger.work(a, b, &mut fuel);
                if merger.is_complete() {
                    // Move the merge out by value (no placeholder batch allocation) and
                    // install the merged result.
                    let Layer::Merging(a, b, merger) = std::mem::replace(layer, Layer::Taken)
                    else {
                        unreachable!("layer changed variant underfoot");
                    };
                    *layer = Layer::Single(merger.done(&a, &b));
                    completed = true;
                }
            }
        }
        completed
    }

    /// Starts merges between adjacent settled layers of comparable size.
    ///
    /// Scans newest to oldest; a merge is started when the older neighbour is at most
    /// twice the size of the newer layer, which keeps the number of layers logarithmic in
    /// the number of distinct updates. Merges only *start* here; all completion goes
    /// through [`Spine::apply_fuel`].
    fn consider_merges(&mut self) {
        let mut changed = true;
        while changed {
            changed = false;
            let mut index = self.layers.len();
            while index >= 2 {
                index -= 1;
                let older = index - 1;
                let start_merge = match (&self.layers[older], &self.layers[index]) {
                    (Layer::Single(a), Layer::Single(b)) => a.len() <= 2 * b.len().max(1),
                    _ => false,
                };
                if start_merge {
                    let newer_layer = self.layers.remove(index);
                    let older_layer = std::mem::replace(&mut self.layers[older], Layer::Taken);
                    let (Layer::Single(a), Layer::Single(b)) = (older_layer, newer_layer) else {
                        unreachable!("layer changed variant underfoot");
                    };
                    let merger = a.begin_merge(&b, self.since.borrow());
                    self.layers[older] = Layer::Merging(a, b, merger);
                    changed = true;
                    // After restructuring, restart the scan from the end.
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::{cursor_to_updates, Cursor};
    use crate::ord_batch::{OrdValBatch, OrdValBuilder};
    use crate::Builder;

    type TestBatch = OrdValBatch<u64, u64, u64, isize>;

    fn batch(lower: u64, upper: u64, updates: Vec<(u64, u64, u64, isize)>) -> TestBatch {
        let mut builder = OrdValBuilder::with_capacity(updates.len());
        for (k, v, t, r) in updates {
            builder.push(k, v, t, r);
        }
        builder.done(
            Antichain::from_elem(lower),
            Antichain::from_elem(upper),
            Antichain::from_elem(0),
        )
    }

    #[test]
    fn spine_accumulates_batches() {
        let mut spine = Spine::new(MergeEffort::Default);
        spine.insert(batch(0, 1, vec![(1, 10, 0, 1), (2, 20, 0, 1)]));
        spine.insert(batch(1, 2, vec![(1, 10, 1, -1), (3, 30, 1, 1)]));
        let mut cursor = spine.cursor();
        let mut updates = cursor_to_updates(&mut cursor);
        updates.sort();
        assert_eq!(
            updates,
            vec![(1, 10, 0, 1), (1, 10, 1, -1), (2, 20, 0, 1), (3, 30, 1, 1),]
        );
        assert_eq!(spine.len(), 4);
        assert_eq!(spine.upper().elements(), &[2]);
    }

    #[test]
    #[should_panic(expected = "abut")]
    fn spine_rejects_gaps() {
        let mut spine = Spine::new(MergeEffort::Default);
        spine.insert(batch(1, 2, vec![(1, 1, 1, 1)]));
    }

    #[test]
    fn spine_keeps_few_layers() {
        let mut spine = Spine::new(MergeEffort::Eager);
        for epoch in 0..256u64 {
            spine.insert(batch(epoch, epoch + 1, vec![(epoch % 16, epoch, epoch, 1)]));
        }
        assert_eq!(spine.len(), 256);
        // Eager merging keeps the layer count logarithmic; allow generous slack.
        assert!(
            spine.layer_count() <= 12,
            "expected few layers, got {}",
            spine.layer_count()
        );
    }

    #[test]
    fn spine_amortized_merging_eventually_settles() {
        let mut spine = Spine::new(MergeEffort::Lazy);
        for epoch in 0..128u64 {
            spine.insert(batch(epoch, epoch + 1, vec![(epoch % 8, 0, epoch, 1)]));
        }
        // Drive outstanding merges to completion with idle effort.
        for _ in 0..64 {
            spine.exert(1024);
        }
        assert_eq!(spine.len(), 128);
        assert!(
            spine.layer_count() <= 12,
            "expected merges to settle, got {} layers",
            spine.layer_count()
        );
    }

    #[test]
    fn spine_compaction_consolidates_history() {
        let mut spine = Spine::new(MergeEffort::Eager);
        // Key 1 value 10 is inserted and removed across epochs; key 2 persists.
        spine.insert(batch(0, 1, vec![(1, 10, 0, 1), (2, 20, 0, 1)]));
        spine.insert(batch(1, 2, vec![(1, 10, 1, -1)]));
        spine.set_logical_compaction(AntichainRef::new(&[2u64]));
        // Insert more batches so merges (with compaction) occur.
        spine.insert(batch(2, 3, vec![(3, 30, 2, 1)]));
        spine.insert(batch(3, 4, vec![(4, 40, 3, 1)]));
        spine.insert(batch(4, 5, vec![(5, 50, 4, 1)]));
        for _ in 0..16 {
            spine.exert(1024);
        }
        // After compaction to time 2, the +1/-1 history of (1,10) cancels entirely.
        let mut cursor = spine.cursor();
        cursor.seek_key(&1);
        let mut found = false;
        if cursor.key_valid() && *cursor.key() == 1 {
            cursor.map_times(|_, _| found = true);
        }
        assert!(!found, "cancelled history should vanish after compaction");
        // Other keys are still present with their full weight.
        let mut cursor = spine.cursor();
        cursor.seek_key(&2);
        assert_eq!(*cursor.key(), 2);
        assert_eq!(cursor.accumulate_until(&10), Some(1));
    }

    #[test]
    fn spine_handles_empty_batches() {
        let mut spine = Spine::new(MergeEffort::Default);
        spine.insert(batch(0, 1, vec![(1, 1, 0, 1)]));
        for epoch in 1..50u64 {
            spine.insert(batch(epoch, epoch + 1, vec![]));
        }
        assert_eq!(spine.len(), 1);
        assert_eq!(spine.upper().elements(), &[50]);
        assert!(spine.layer_count() <= 4);
    }
}

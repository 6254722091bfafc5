//! Bounded top-r accumulator shared by the scanning search algorithms
//! (Online, Bound, TSD and the baselines). The GCT-index and Hybrid read a
//! score order kept under the same tie rule instead.
//!
//! Keeps the `r` best vertices offered so far under (score desc, vertex
//! asc), whatever the offer order. A scan in vertex order thus replaces only
//! on a strictly greater score, like lines 5–7 of Algorithm 3; a scan in
//! bound order stops at the first candidate [`TopRCollector::admits`]
//! refuses.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use sd_graph::VertexId;

use crate::config::{TopREntry, TopRResult};

/// Accumulates the top `r` `(vertex, score)` pairs.
#[derive(Clone, Debug)]
pub struct TopRCollector {
    r: usize,
    /// Min-heap of [`rank`] keys: the root is the worst entry kept.
    heap: BinaryHeap<Reverse<u64>>,
}

/// `(vertex, score)` as one key that is greater the higher it ranks under
/// (score desc, vertex asc): the score in the high half, the inverted
/// vertex id in the low half.
fn rank(vertex: VertexId, score: u32) -> u64 {
    (u64::from(score) << 32) | u64::from(!vertex)
}

impl TopRCollector {
    /// Collector for `r ≥ 1` entries.
    pub fn new(r: usize) -> Self {
        assert!(r >= 1);
        TopRCollector { r, heap: BinaryHeap::with_capacity(r + 1) }
    }

    /// Whether the collector already holds `r` entries.
    pub fn is_full(&self) -> bool {
        self.heap.len() == self.r
    }

    /// Lowest score currently kept, or `None` while not full. The early-stop
    /// rule is `upper_bound ≤ min_score()` once full.
    pub fn min_score(&self) -> Option<u32> {
        if self.is_full() {
            self.heap.peek().map(|&Reverse(worst)| (worst >> 32) as u32)
        } else {
            None
        }
    }

    /// Whether a candidate `vertex` scoring at most `bound` could be kept:
    /// the collector is not full, or (`bound`, `vertex`) outranks its worst.
    pub fn admits(&self, vertex: VertexId, bound: u32) -> bool {
        !self.is_full()
            || self.heap.peek().is_some_and(|&Reverse(worst)| rank(vertex, bound) > worst)
    }

    /// Offers a candidate; returns whether it was kept.
    pub fn offer(&mut self, vertex: VertexId, score: u32) -> bool {
        if !self.admits(vertex, score) {
            return false;
        }
        if self.is_full() {
            self.heap.pop();
        }
        self.heap.push(Reverse(rank(vertex, score)));
        true
    }

    /// Finishes: `(vertex, score)` pairs sorted by (score desc, vertex asc).
    pub fn into_sorted(self) -> Vec<(VertexId, u32)> {
        let keys = self.heap.into_sorted_vec().into_iter();
        keys.map(|Reverse(key)| (!(key as u32), (key >> 32) as u32)).collect()
    }

    /// Finishes a scan that scored `score_computations` vertices since
    /// `start`: the kept vertices by (score desc, vertex asc), each with
    /// `contexts(vertex)`.
    pub(crate) fn finish(
        self,
        score_computations: usize,
        start: Instant,
        mut contexts: impl FnMut(VertexId) -> Vec<Vec<VertexId>>,
    ) -> TopRResult {
        let entries = self
            .into_sorted()
            .into_iter()
            .map(|(vertex, score)| TopREntry { vertex, score, contexts: contexts(vertex) })
            .collect();
        TopRResult::timed(entries, score_computations, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_top_r() {
        let mut c = TopRCollector::new(2);
        for (v, s) in [(0, 1), (1, 5), (2, 3), (3, 4)] {
            c.offer(v, s);
        }
        assert_eq!(c.into_sorted(), vec![(1, 5), (3, 4)]);
    }

    /// A tie at the boundary goes to the lower vertex id, whichever came
    /// first; a strictly greater score always replaces.
    #[test]
    fn strictly_greater_replacement() {
        let mut c = TopRCollector::new(1);
        assert!(c.offer(7, 3));
        assert!(!c.offer(9, 3), "an equal score with a higher id must not replace");
        assert!(c.offer(1, 3), "an equal score with a lower id replaces");
        assert!(!c.offer(0, 2), "a lower score never replaces");
        assert!(c.offer(2, 4));
        assert_eq!(c.into_sorted(), vec![(2, 4)]);
    }

    /// The kept set does not depend on the offer order: the r best under
    /// (score desc, vertex asc).
    #[test]
    fn ties_resolve_to_the_lowest_ids_whatever_the_offer_order() {
        let offers = [(0, 0), (1, 0), (2, 0), (3, 1), (4, 0), (5, 2)];
        let best = vec![(5, 2), (3, 1), (0, 0)];
        for order in [offers.to_vec(), offers.iter().rev().copied().collect()] {
            let mut c = TopRCollector::new(3);
            for (v, s) in order {
                c.offer(v, s);
            }
            assert_eq!(c.into_sorted(), best);
        }
    }

    #[test]
    fn admits_until_nothing_later_can_enter() {
        let mut c = TopRCollector::new(2);
        assert!(c.admits(9, 0), "not full");
        c.offer(4, 3);
        c.offer(6, 2);
        assert!(c.admits(5, 2), "a lower id at the boundary score");
        assert!(!c.admits(7, 2), "a higher id at the boundary score");
        assert!(!c.admits(0, 1), "a lower bound");
        assert!(c.admits(9, 3), "a higher bound");
    }

    #[test]
    fn min_score_only_when_full() {
        let mut c = TopRCollector::new(2);
        assert_eq!(c.min_score(), None);
        c.offer(0, 9);
        assert_eq!(c.min_score(), None);
        c.offer(1, 4);
        assert_eq!(c.min_score(), Some(4));
    }

    #[test]
    fn sorted_output_breaks_ties_by_vertex() {
        let mut c = TopRCollector::new(3);
        c.offer(5, 2);
        c.offer(1, 2);
        c.offer(3, 2);
        assert_eq!(c.into_sorted(), vec![(1, 2), (3, 2), (5, 2)]);
    }
}

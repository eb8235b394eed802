//! The merge policy.
//!
//! AsterixDB uses a size-tiered ("tiering-like") merge policy: a sequence of
//! components is merged when the total size of the younger components reaches
//! `ratio` times the size of the oldest component in the sequence
//! (Section VI-A of the paper uses a ratio of 1.2). The policy inspects the
//! disk component list (newest first) and returns the range of component
//! indices to merge, if any.

use crate::component::Component;

/// The size-tiered merge policy with a configurable size ratio.
#[derive(Clone, Debug)]
pub struct SizeTieredPolicy {
    /// Merge is triggered when sum(younger) >= ratio * oldest-in-sequence.
    pub size_ratio: f64,
    /// Never merge fewer than this many components at once.
    pub min_merge_width: usize,
    /// Cap on how many components are merged in a single operation.
    pub max_merge_width: usize,
}

impl Default for SizeTieredPolicy {
    fn default() -> Self {
        SizeTieredPolicy {
            size_ratio: 1.2,
            min_merge_width: 2,
            max_merge_width: 10,
        }
    }
}

impl SizeTieredPolicy {
    /// Creates a policy with the given size ratio and default widths.
    pub fn new(size_ratio: f64) -> Self {
        SizeTieredPolicy {
            size_ratio,
            ..Default::default()
        }
    }

    /// Given the component list ordered **newest first**, returns the index
    /// range `[start, end)` of components that should be merged together,
    /// or `None` if no merge is needed.
    pub fn select_merge(&self, components: &[Component]) -> Option<(usize, usize)> {
        let n = components.len();
        if n < self.min_merge_width {
            return None;
        }
        // Examine prefixes ending at each candidate "oldest" component
        // (newest-first ordering means the oldest of a sequence has the
        // largest index): the first sequence [0, end) whose components
        // [0, end-1) sum to at least ratio * size(components[end-1]) is
        // merged.
        let sizes: Vec<f64> = components.iter().map(|c| c.size_bytes() as f64).collect();
        let mut younger_sum = sizes[0];
        for end in 2..=n.min(self.max_merge_width) {
            let oldest = sizes[end - 1];
            if younger_sum >= self.size_ratio * oldest {
                // merge components [0, end)
                return Some((0, end));
            }
            younger_sum += oldest;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::Bytes;
    use crate::component::ComponentSource;
    use crate::entry::{Entry, Key};

    fn comp_of_size(n_entries: usize, tag: u64) -> Component {
        let entries = (0..n_entries as u64)
            .map(|i| {
                Entry::put(
                    Key::from_u64(tag * 1_000_000 + i),
                    Bytes::from(vec![0u8; 100]),
                )
            })
            .collect();
        Component::from_unsorted(entries, ComponentSource::Flush)
    }

    #[test]
    fn no_merge_for_single_component() {
        let p = SizeTieredPolicy::default();
        assert_eq!(p.select_merge(&[comp_of_size(10, 1)]), None);
        assert_eq!(p.select_merge(&[]), None);
    }

    #[test]
    fn merges_equal_sized_components() {
        let p = SizeTieredPolicy::new(1.2);
        // two equal components: younger (1) >= 1.2 * oldest (1)? No.
        let comps = vec![comp_of_size(10, 1), comp_of_size(10, 2)];
        assert_eq!(p.select_merge(&comps), None);
        // three equal components: younger sum of first two = 2 >= 1.2 * 1 -> merge all three
        let comps = vec![
            comp_of_size(10, 1),
            comp_of_size(10, 2),
            comp_of_size(10, 3),
        ];
        assert_eq!(p.select_merge(&comps), Some((0, 3)));
    }

    #[test]
    fn does_not_merge_into_much_larger_component() {
        let p = SizeTieredPolicy::new(1.2);
        // a big old component and a small new one: no merge
        let comps = vec![comp_of_size(5, 1), comp_of_size(500, 2)];
        assert_eq!(p.select_merge(&comps), None);
    }

    #[test]
    fn merge_width_is_capped() {
        let p = SizeTieredPolicy {
            size_ratio: 0.0,
            min_merge_width: 2,
            max_merge_width: 3,
        };
        let comps: Vec<Component> = (0..6).map(|i| comp_of_size(10, i)).collect();
        let (s, e) = p.select_merge(&comps).unwrap();
        assert_eq!(s, 0);
        assert!(e <= 3);
    }
}

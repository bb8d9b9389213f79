//! Process-wide memoization of pure functions.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

/// A process-wide map from exact-bit keys to shared values, each a pure
/// function of its key: FFT plans, device responses and FIRs, noise
/// floors. Declare one as a `static` with [`Memo::new`]. Every thread reads
/// the same [`Arc`], so a pool worker that starts mid-run finds them warm.
///
/// `make` runs outside the lock. Threads that miss one key at once each
/// build the value and the first insert wins; since the value is a pure
/// function of the key, that cannot change a result, and no thread waits
/// on another's build. A `make` may read other keys of the same memo, and
/// one that panics leaves the memo as it was.
pub struct Memo<K, V>(Mutex<Option<HashMap<K, Arc<V>>>>);

impl<K: Eq + Hash, V> Memo<K, V> {
    /// An empty memo.
    pub const fn new() -> Self {
        Self(Mutex::new(None))
    }

    /// The value for `key`, built by `make`, a pure function of `key`, on
    /// the first read.
    pub fn get(&self, key: K, make: impl FnOnce() -> V) -> Arc<V> {
        let lock = || self.0.lock().expect("no map read or insert panics");
        if let Some(v) = lock().as_ref().and_then(|map| map.get(&key)) {
            return Arc::clone(v);
        }
        let made = Arc::new(make());
        let mut map = lock();
        let map = map.get_or_insert_with(HashMap::new);
        Arc::clone(map.entry(key).or_insert(made))
    }
}

impl<K: Eq + Hash, V> Default for Memo<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

//! Server-side session registry with last-touch idle eviction.
//!
//! Sessions hold example state between requests, so a remote front door
//! must bound how long an abandoned conversation can pin memory. Every
//! session records when it was last touched (any request naming it), and
//! one left idle for the ttl has expired. A `touch` or `close` checks its
//! own entry's expiry, so an access between sweeps can never resurrect an
//! expired session; the server's sweeper thread drops every expired entry
//! once per [`SWEEP_INTERVAL`] with one pass over the map, which holds a
//! few hundred sessions at most under the traffic this server sees.
//!
//! Requests naming an evicted (or never-created) session get the typed
//! [`ServiceError::SessionNotFound`] — over the wire, an HTTP 404 with
//! that error as the body. Eviction never tears a request in half: a
//! handler holds the session's `Arc`, so an in-flight request on a
//! just-evicted session completes against the still-live state and only
//! the *next* attach sees the 404.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use sst_service::{ServiceError, Session};

/// How often the server's sweeper thread calls [`SessionStore::sweep`].
pub const SWEEP_INTERVAL: Duration = Duration::from_millis(50);

/// One registered session.
#[derive(Debug)]
struct Entry {
    session: Arc<Mutex<Session>>,
    last_touch: Instant,
}

#[derive(Debug)]
struct Inner {
    map: HashMap<u64, Entry>,
    next_id: u64,
}

/// The registry. See the module docs.
#[derive(Debug)]
pub struct SessionStore {
    inner: Mutex<Inner>,
    ttl: Duration,
    evicted: AtomicU64,
}

impl SessionStore {
    /// A store evicting sessions idle for `ttl`.
    pub fn new(ttl: Duration) -> SessionStore {
        SessionStore {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                next_id: 1,
            }),
            ttl,
            evicted: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn expired(&self, entry: &Entry, now: Instant) -> bool {
        now.duration_since(entry.last_touch) >= self.ttl
    }

    /// Registers a session, returning its id.
    pub fn create(&self, session: Session) -> u64 {
        let mut inner = self.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.map.insert(
            id,
            Entry {
                session: Arc::new(Mutex::new(session)),
                last_touch: Instant::now(),
            },
        );
        id
    }

    /// Fetches a live session and restarts its idle clock. Evicted,
    /// closed and never-created ids all answer the same typed not-found.
    pub fn touch(&self, id: u64) -> Result<Arc<Mutex<Session>>, ServiceError> {
        let now = Instant::now();
        let mut inner = self.lock();
        let entry = inner
            .map
            .get_mut(&id)
            .ok_or(ServiceError::SessionNotFound(id))?;
        if self.expired(entry, now) {
            inner.map.remove(&id);
            self.evicted.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::SessionNotFound(id));
        }
        entry.last_touch = now;
        Ok(Arc::clone(&entry.session))
    }

    /// Closes a session explicitly. An expired session counts as evicted
    /// and answers not-found, as it would to a touch.
    pub fn close(&self, id: u64) -> Result<(), ServiceError> {
        let now = Instant::now();
        let entry = self
            .lock()
            .map
            .remove(&id)
            .ok_or(ServiceError::SessionNotFound(id))?;
        if self.expired(&entry, now) {
            self.evicted.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::SessionNotFound(id));
        }
        Ok(())
    }

    /// Evicts every session idle for the ttl or longer. Called by the
    /// server's sweeper thread every [`SWEEP_INTERVAL`].
    pub fn sweep(&self) {
        let now = Instant::now();
        let mut inner = self.lock();
        let before = inner.map.len();
        inner.map.retain(|_, entry| !self.expired(entry, now));
        let evicted = before - inner.map.len();
        self.evicted.fetch_add(evicted as u64, Ordering::Relaxed);
    }

    /// Live sessions right now.
    pub fn live(&self) -> usize {
        self.lock().map.len()
    }

    /// Sessions evicted by the idle deadline so far.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    use sst_core::Example;
    use sst_service::Engine;
    use sst_tables::{Database, Table};

    fn engine() -> Engine {
        let table = Table::new("T", vec!["A", "B"], vec![vec!["a", "b"]]).unwrap();
        Engine::new(StdArc::new(Database::from_tables(vec![table]).unwrap()))
    }

    #[test]
    fn touch_extends_the_deadline_and_eviction_fires_after_it() {
        let engine = engine();
        let store = SessionStore::new(Duration::from_millis(60));
        let id = store.create(engine.session());
        // Keep touching within the ttl: the session must survive well
        // past one ttl of wall-clock.
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(25));
            store.touch(id).expect("touched session stays live");
        }
        // Now go idle past the ttl: the sweep evicts it.
        std::thread::sleep(Duration::from_millis(90));
        store.sweep();
        assert_eq!(store.live(), 0);
        assert_eq!(store.evicted(), 1);
        assert!(matches!(
            store.touch(id),
            Err(ServiceError::SessionNotFound(i)) if i == id
        ));
    }

    #[test]
    fn access_between_sweeps_cannot_resurrect_an_expired_session() {
        let engine = engine();
        // No sweep runs: the expiry check in `touch` does the work.
        let store = SessionStore::new(Duration::from_millis(30));
        let id = store.create(engine.session());
        std::thread::sleep(Duration::from_millis(75));
        assert!(store.touch(id).is_err());
        assert_eq!(store.live(), 0);
    }

    #[test]
    fn close_is_immediate_and_idempotent() {
        let engine = engine();
        let store = SessionStore::new(Duration::from_secs(60));
        let id = store.create(engine.session());
        assert_eq!(store.live(), 1);
        store.close(id).expect("close live session");
        assert!(matches!(
            store.close(id),
            Err(ServiceError::SessionNotFound(_))
        ));
        assert_eq!(store.live(), 0);
        // Closed-then-swept: a closed session must not count as an
        // eviction.
        std::thread::sleep(Duration::from_millis(20));
        store.sweep();
        assert_eq!(store.evicted(), 0);
    }

    #[test]
    fn eviction_never_interrupts_a_held_session() {
        let engine = engine();
        let store = SessionStore::new(Duration::from_millis(30));
        let id = store.create(engine.session());
        let held = store.touch(id).expect("fresh session is live");
        std::thread::sleep(Duration::from_millis(60));
        store.sweep();
        // The in-flight holder still works against the evicted state…
        let mut session = held.lock().unwrap();
        session.add_example(Example::new(vec!["a"], "b"));
        session.watch_inputs(vec![vec!["a".to_string()]]);
        assert!(session.status().is_ok(), "held session still answers");
        drop(session);
        // …and only the next attach sees the typed not-found.
        assert!(matches!(
            store.touch(id),
            Err(ServiceError::SessionNotFound(i)) if i == id
        ));
        assert_eq!(store.evicted(), 1);
    }
}

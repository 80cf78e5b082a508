//! Fixture: lock-order inversion, and a lock inside `catch_unwind`.

/// Reads a session entry while a cache shard is held — inverted order.
pub fn lookup(&self) -> usize {
    let shard = self.cache_shard.lock();
    let session = self.sessions.read();
    shard.len() + session.len()
}

/// Takes the session lock while the WAL guard is live — inverted order.
pub fn checkpoint(&self) -> u64 {
    let st = lock_mutex(wal);
    let session = read_session();
    st.save(&session)
}

/// Acquires the WAL inside an unwind boundary.
pub fn probe(&self) -> bool {
    std::panic::catch_unwind(|| lock_mutex(wal).sync()).is_ok()
}

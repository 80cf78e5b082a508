//! Fixture: locks taken in the committed order, none under unwind.

/// Session first, cache shard second — the global order.
pub fn lookup(&self) -> usize {
    let session = self.sessions.read();
    let shard = self.cache_shard.lock();
    shard.len() + session.len()
}

/// The update path: the session write lock, then the WAL.
pub fn apply(&self, line: &str) -> u64 {
    let mut session = write_session();
    let seq = lock_mutex(wal).append(line);
    session.apply(line);
    seq
}

/// A checkpoint holds both guards, session first.
pub fn checkpoint(&self) -> u64 {
    let session = read_session();
    let st = lock_mutex(wal);
    st.save(&session)
}

/// Drops the WAL guard before taking the session lock.
pub fn health(&self) -> u64 {
    let st = lock_mutex(wal);
    let seq = st.seq();
    drop(st);
    let session = read_session();
    seq + session.epoch()
}

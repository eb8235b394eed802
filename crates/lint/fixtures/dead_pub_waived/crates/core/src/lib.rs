// dhlint: allow(dead-pub) — fixture: kept for a caller that is about to land
pub fn nobody_calls_me() {}

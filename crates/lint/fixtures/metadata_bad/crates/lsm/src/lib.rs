// The panic audit switched off: only one of its six lints is denied.
#![deny(clippy::unwrap_used)]

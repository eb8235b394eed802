fn main() {
    let _ = dynahash_lsm::FROM_THE_BENCHMARK;
}

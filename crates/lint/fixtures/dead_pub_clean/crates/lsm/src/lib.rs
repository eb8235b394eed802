pub fn from_another_crate() {}

pub fn from_an_integration_test() {}

pub(crate) const FROM_THE_BENCHMARK: u32 = 1;

pub struct Live;
pub struct Dead;

impl Live {
    pub fn touch(&self) {}
}

impl Dead {
    // Nobody calls this one; the rule is name-based and cannot tell it from
    // `Live::touch` — its documented blind spot.
    pub fn touch(&self) {}
}

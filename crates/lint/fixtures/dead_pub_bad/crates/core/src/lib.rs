pub fn only_unit_tested() -> u32 {
    7
}

pub struct OnlyMentioned;

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        assert_eq!(super::only_unit_tested(), 7);
    }
}

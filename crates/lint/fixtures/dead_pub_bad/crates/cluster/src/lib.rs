/// Builds an `OnlyMentioned` — which a doc comment may name without using it.
fn describe() -> &'static str {
    "OnlyMentioned, and only_unit_tested() too"
}

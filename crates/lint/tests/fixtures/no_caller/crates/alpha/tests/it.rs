#[test]
fn integration() {
    alpha::named_in_tests_dir();
}

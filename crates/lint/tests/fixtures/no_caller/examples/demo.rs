fn main() {
    alpha::called_from_example();
    beta::entry();
}

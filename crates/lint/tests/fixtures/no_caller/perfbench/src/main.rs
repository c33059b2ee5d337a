fn main() {
    alpha::called_from_perfbench();
}

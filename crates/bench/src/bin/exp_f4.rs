//! F4: datacenter power over a diurnal day, four policies.
fn main() -> std::process::ExitCode {
    bench::cli::experiment("F4", "Datacenter power over 24 h", || bench::exp_f4_t5().0)
}

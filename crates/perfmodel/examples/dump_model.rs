fn main() {
    use md_perfmodel::*;
    use sdc_core::StrategyKind as K;
    let m = MachineParams::default();
    for case in 1..=4 {
        let c = CaseGeometry::paper_case(case);
        print!("case {case}: ");
        for kind in [
            K::Sdc { dims: 1 },
            K::Sdc { dims: 2 },
            K::Sdc { dims: 3 },
            K::Critical,
            K::Privatized,
            K::Redundant,
        ] {
            print!("{}: ", kind);
            for p in [2usize,4,8,12,16] {
                match speedup(&m, &c, kind, p) { Some(s)=>print!("{s:.2} "), None=>print!("--- ") }
            }
            print!("| ");
        }
        println!();
    }
}

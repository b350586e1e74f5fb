// R008 fixture: the conv layer's input-only backward is a hot-path
// entry like `forward` and `backward`, so a clock read one call away
// from it is reachable and fires at the entry.
pub struct Conv2d {
    taps: usize,
}

impl Conv2d {
    pub fn backward_input_only(&mut self, n: usize) -> usize { //~ R008
        stamp(n + self.taps)
    }
}

fn stamp(n: usize) -> usize {
    let t = std::time::Instant::now();
    n ^ t.elapsed().subsec_nanos() as usize
}

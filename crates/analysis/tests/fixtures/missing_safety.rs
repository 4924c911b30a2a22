// Fixture for the missing-safety-inflation lint. `//~ <lint-id>` marks
// lines expecting a finding. This file is never compiled.

pub fn bad_raw_write(row: &mut Row, port: usize, v: f64) {
    row.mass[port] += v; //~ missing-safety-inflation
    row.cap[port] = v; //~ missing-safety-inflation
}

pub fn bad_transfer(m: &mut Matrix, row: &Row, i: usize, port: usize) {
    m.dropped_mass[i] = row.mass[port]; //~ missing-safety-inflation
}

pub fn bad_scalar_write(pads: &mut Pads, v: f64) {
    pads.mass += v; //~ missing-safety-inflation
    pads.cap = v; //~ missing-safety-inflation
}

pub fn bad_scalar_bound_from_earlier_line(pads: &mut Pads, v: f64) {
    let worst = SAFETY * v;
    pads.cap = pads.cap.max(worst); //~ missing-safety-inflation
}

pub fn good_inflated(row: &mut Row, port: usize, v: f64) {
    row.mass[port] += v * SAFETY;
    row.cap[port] = row.cap[port].max(v * SAFETY);
}

pub fn good_scalar_inflated(pads: &mut Pads, v: f64) {
    pads.mass += SAFETY * v;
    pads.cap = pads.cap.max(SAFETY * v);
}

pub fn good_helper(row: &mut Row, port: usize, v: f64) {
    row.pad_absorb(port, v * SAFETY);
    let _ = row.pad_shed(port, v);
}

pub fn good_scalar_helper(pads: &mut Pads, v: f64) {
    pads.pad_absorb(SAFETY * v);
    let _ = pads.pad_shed(v);
}

pub fn good_scalar_read(pads: &Pads) -> f64 {
    pads.mass.min(pads.cap)
}

pub fn good_read(row: &Row, port: usize) -> f64 {
    row.mass[port] + row.cap[port]
}

pub fn silenced(row: &mut Row, port: usize, v: f64) {
    // oblint::allow(missing-safety-inflation): fixture demo
    row.mass[port] = v;
}

pub fn text_only() {
    let _ = "row.mass[0] = v in a string must not fire";
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_write_raw() {
        let mut row = Row::default();
        row.mass[0] = 1.0;
    }
}

//! Speedup-curve utilities: the scaffolding behind the Fig. 3 / Fig. 5
//! reproductions.

use rph_trace::Time;

/// One speedup curve: a label plus `(cores, elapsed)` points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpeedupSeries {
    pub label: String,
    pub points: Vec<(usize, Time)>,
}

impl SpeedupSeries {
    /// Measure a series by running `run(cores)` for every entry of
    /// `cores`.
    pub fn measure(
        label: impl Into<String>,
        cores: &[usize],
        mut run: impl FnMut(usize) -> Time,
    ) -> Self {
        SpeedupSeries {
            label: label.into(),
            points: cores.iter().map(|&c| (c, run(c))).collect(),
        }
    }

    /// Relative speedup at each point w.r.t. `base` (typically the
    /// series' own 1-core time — the paper reports *relative* speedups
    /// "for fairness").
    pub fn speedups(&self, base: Time) -> Vec<(usize, f64)> {
        self.points
            .iter()
            .map(|&(c, t)| (c, relative_speedup(base, t)))
            .collect()
    }

    /// This series' one-core elapsed time, if measured.
    pub fn one_core(&self) -> Option<Time> {
        self.points.iter().find(|(c, _)| *c == 1).map(|&(_, t)| t)
    }

    /// The elapsed time at a given core count.
    pub fn at(&self, cores: usize) -> Option<Time> {
        self.points
            .iter()
            .find(|(c, _)| *c == cores)
            .map(|&(_, t)| t)
    }
}

/// `base / t` — the paper's relative speedup.
pub fn relative_speedup(base: Time, t: Time) -> f64 {
    if t == 0 {
        return f64::INFINITY;
    }
    base as f64 / t as f64
}

/// Did a curve "flatten out" (its last point improves on the midpoint
/// by less than `epsilon` relative)? Used by shape assertions.
pub fn flattens(series: &[(usize, f64)], epsilon: f64) -> bool {
    if series.len() < 3 {
        return false;
    }
    let mid = series[series.len() / 2].1;
    let last = series[series.len() - 1].1;
    last <= mid * (1.0 + epsilon)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_computes_speedups() {
        let s = SpeedupSeries::measure("halves", &[1, 2, 4], |c| (1000 / c) as Time);
        assert_eq!(s.one_core(), Some(1000));
        assert_eq!(s.at(4), Some(250));
        let sp = s.speedups(1000);
        assert_eq!(sp, vec![(1, 1.0), (2, 2.0), (4, 4.0)]);
    }

    #[test]
    fn flattening_detection() {
        let linear = vec![(1, 1.0), (2, 2.0), (4, 4.0), (8, 8.0)];
        assert!(!flattens(&linear, 0.1));
        let flat = vec![(1, 1.0), (2, 1.4), (4, 1.5), (8, 1.5)];
        assert!(flattens(&flat, 0.1));
        assert!(!flattens(&[(1, 1.0)], 0.1), "too short to judge");
    }

    #[test]
    fn zero_time_is_infinite_speedup() {
        assert!(relative_speedup(10, 0).is_infinite());
    }
}

/// Render speedup curves as an ASCII chart (cores on x, relative
/// speedup on y) — the terminal rendition of the paper's Fig. 3/5
/// plots. Each series gets a symbol; the ideal-speedup diagonal is
/// drawn with `·`.
pub fn render_chart(series: &[(String, Vec<(usize, f64)>)], height: usize) -> String {
    use std::fmt::Write as _;
    let symbols = ['E', 'S', 'P', 'L', 'B', 'W', 'X', 'Y'];
    let Some(max_cores) = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|(c, _)| *c))
        .max()
    else {
        return "(no data)\n".to_string();
    };
    let max_y = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|(_, s)| *s))
        .fold(max_cores as f64, f64::max)
        .max(1.0);
    let height = height.max(4);
    let width = 64usize;
    let mut grid = vec![vec![' '; width + 1]; height + 1];

    let xcol = |c: usize| (c as f64 / max_cores as f64 * width as f64).round() as usize;
    let yrow = |s: f64| height - ((s / max_y * height as f64).round() as usize).min(height);

    // Ideal diagonal (speedup == cores).
    for c in 1..=max_cores {
        let y = c as f64;
        if y <= max_y {
            grid[yrow(y)][xcol(c)] = '·';
        }
    }
    for (i, (_, pts)) in series.iter().enumerate() {
        let sym = symbols[i % symbols.len()];
        for &(c, s) in pts {
            grid[yrow(s)][xcol(c)] = sym;
        }
    }

    let mut out = String::new();
    for (row, line) in grid.iter().enumerate() {
        let yval = max_y * (height - row) as f64 / height as f64;
        let _ = write!(out, "{yval:5.1} |");
        out.extend(line.iter());
        out.push('\n');
    }
    let _ = writeln!(out, "      +{}", "-".repeat(width + 1));
    let _ = writeln!(out, "       cores 1 .. {max_cores}   (· = ideal speedup)");
    for (i, (label, _)) in series.iter().enumerate() {
        let _ = writeln!(out, "       {} = {}", symbols[i % symbols.len()], label);
    }
    out
}

#[cfg(test)]
mod chart_tests {
    use super::render_chart;

    #[test]
    fn chart_contains_symbols_and_legend() {
        let series = vec![
            ("Eden".to_string(), vec![(1, 1.0), (8, 7.5), (16, 15.0)]),
            ("GpH".to_string(), vec![(1, 1.0), (8, 4.0), (16, 5.0)]),
        ];
        let s = render_chart(&series, 10);
        assert!(s.contains('E'));
        assert!(s.contains('S'));
        assert!(s.contains("E = Eden"));
        assert!(s.contains("ideal speedup"));
    }

    #[test]
    fn empty_series_is_safe() {
        assert_eq!(render_chart(&[], 10), "(no data)\n");
    }
}

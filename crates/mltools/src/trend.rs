//! Trend analysis for the paper's chain-store scenario: given sales (and
//! optionally refunds) series, detect the recent trend via a moving average
//! and an OLS slope over the smoothed net series.

/// Detected trend direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Trend {
    /// Slope significantly positive.
    Rising,
    /// Slope significantly negative.
    Falling,
    /// No significant slope.
    Flat,
}

impl Trend {
    /// Lower-case label for tool output.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Trend::Rising => "rising",
            Trend::Falling => "falling",
            Trend::Flat => "flat",
        }
    }
}

/// Centered-window moving average (window clamped at the edges).
pub(crate) fn moving_average(series: &[f64], window: usize) -> Vec<f64> {
    if series.is_empty() || window == 0 {
        return series.to_vec();
    }
    let half = window / 2;
    (0..series.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(series.len());
            series[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

/// OLS slope of `series` against its index.
pub(crate) fn ols_slope(series: &[f64]) -> f64 {
    let n = series.len();
    if n < 2 {
        return 0.0;
    }
    let xm = (n - 1) as f64 / 2.0;
    let ym = series.iter().sum::<f64>() / n as f64;
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, y) in series.iter().enumerate() {
        let dx = i as f64 - xm;
        num += dx * (y - ym);
        den += dx * dx;
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Analyze net sales (sales minus optional refunds): smooth, fit a slope,
/// classify. `relative_threshold` scales with the series magnitude so the
/// verdict is unit-free.
pub(crate) fn analyze(sales: &[f64], refunds: Option<&[f64]>, window: usize) -> (Trend, f64) {
    let net: Vec<f64> = match refunds {
        Some(r) => sales
            .iter()
            .enumerate()
            .map(|(i, s)| s - r.get(i).copied().unwrap_or(0.0))
            .collect(),
        None => sales.to_vec(),
    };
    let smoothed = moving_average(&net, window);
    let slope = ols_slope(&smoothed);
    let scale = smoothed
        .iter()
        .map(|v| v.abs())
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let relative = slope / scale;
    let trend = if relative > 0.01 {
        Trend::Rising
    } else if relative < -0.01 {
        Trend::Falling
    } else {
        Trend::Flat
    };
    (trend, slope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rising_series_detected() {
        let sales: Vec<f64> = (0..30).map(|i| 100.0 + 5.0 * i as f64).collect();
        let (trend, slope) = analyze(&sales, None, 5);
        assert_eq!(trend, Trend::Rising);
        assert!(slope > 4.0);
    }

    #[test]
    fn falling_series_detected() {
        let sales: Vec<f64> = (0..30).map(|i| 500.0 - 10.0 * i as f64).collect();
        let (trend, _) = analyze(&sales, None, 5);
        assert_eq!(trend, Trend::Falling);
    }

    #[test]
    fn flat_noisy_series_detected() {
        let sales: Vec<f64> = (0..30)
            .map(|i| 100.0 + if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let (trend, _) = analyze(&sales, None, 5);
        assert_eq!(trend, Trend::Flat);
    }

    #[test]
    fn refunds_flip_the_verdict() {
        // Sales rise, but refunds rise twice as fast → net falls.
        let sales: Vec<f64> = (0..30).map(|i| 100.0 + 5.0 * i as f64).collect();
        let refunds: Vec<f64> = (0..30).map(|i| 10.0 * i as f64).collect();
        let (trend, _) = analyze(&sales, Some(&refunds), 5);
        assert_eq!(trend, Trend::Falling);
    }

    #[test]
    fn moving_average_smooths() {
        let s = vec![0.0, 10.0, 0.0, 10.0, 0.0];
        let m = moving_average(&s, 3);
        assert_eq!(m.len(), s.len());
        assert!(m[2] > 0.0 && m[2] < 10.0);
    }

    #[test]
    fn slope_edge_cases() {
        assert_eq!(ols_slope(&[]), 0.0);
        assert_eq!(ols_slope(&[5.0]), 0.0);
        assert!((ols_slope(&[0.0, 1.0, 2.0]) - 1.0).abs() < 1e-12);
    }
}

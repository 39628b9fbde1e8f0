//! Color types and the RGB ↔ HSV conversions used for histogram binning.

/// An RGB color with channels in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rgb {
    /// Red channel, `[0, 1]`.
    pub r: f64,
    /// Green channel, `[0, 1]`.
    pub g: f64,
    /// Blue channel, `[0, 1]`.
    pub b: f64,
}

impl Rgb {
    /// Constructs a color, clamping each channel into `[0, 1]`.
    pub fn new(r: f64, g: f64, b: f64) -> Self {
        Rgb {
            r: r.clamp(0.0, 1.0),
            g: g.clamp(0.0, 1.0),
            b: b.clamp(0.0, 1.0),
        }
    }

    /// Black.
    pub const BLACK: Rgb = Rgb {
        r: 0.0,
        g: 0.0,
        b: 0.0,
    };

    /// White.
    pub const WHITE: Rgb = Rgb {
        r: 1.0,
        g: 1.0,
        b: 1.0,
    };

    /// The color as a feature-space point `[r, g, b]`.
    pub fn to_point(self) -> [f64; 3] {
        [self.r, self.g, self.b]
    }

    /// From 8-bit channels.
    pub fn from_u8(r: u8, g: u8, b: u8) -> Self {
        Rgb {
            r: r as f64 / 255.0,
            g: g as f64 / 255.0,
            b: b as f64 / 255.0,
        }
    }

    /// To 8-bit channels (round to nearest).
    pub fn to_u8(self) -> (u8, u8, u8) {
        let q = |c: f64| (c.clamp(0.0, 1.0) * 255.0).round() as u8;
        (q(self.r), q(self.g), q(self.b))
    }

    /// Linear interpolation between two colors (`t` clamped to `[0, 1]`).
    pub fn lerp(self, other: Rgb, t: f64) -> Rgb {
        let t = t.clamp(0.0, 1.0);
        Rgb::new(
            self.r + (other.r - self.r) * t,
            self.g + (other.g - self.g) * t,
            self.b + (other.b - self.b) * t,
        )
    }
}

/// An HSV color: hue in degrees `[0, 360)`, saturation and value in
/// `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hsv {
    /// Hue angle in degrees, `[0, 360)`.
    pub h: f64,
    /// Saturation, `[0, 1]`.
    pub s: f64,
    /// Value (brightness), `[0, 1]`.
    pub v: f64,
}

impl Hsv {
    /// Constructs an HSV color, wrapping hue into `[0, 360)` and clamping
    /// saturation/value.
    pub fn new(h: f64, s: f64, v: f64) -> Self {
        Hsv {
            h: h.rem_euclid(360.0),
            s: s.clamp(0.0, 1.0),
            v: v.clamp(0.0, 1.0),
        }
    }

    /// The color as a feature-space point `[h/360, s, v]` in the unit
    /// cube — the layout [`earthmover_core::ground::BinGrid`] bins over.
    pub fn to_point(self) -> [f64; 3] {
        [self.h / 360.0, self.s, self.v]
    }
}

/// Converts RGB to HSV (standard hexcone model).
pub fn rgb_to_hsv(c: Rgb) -> Hsv {
    let max = c.r.max(c.g).max(c.b);
    let min = c.r.min(c.g).min(c.b);
    let delta = max - min;
    #[expect(clippy::float_cmp, reason = "max is one channel; == picks its sector")]
    let h = if delta == 0.0 {
        0.0
    } else if max == c.r {
        60.0 * (((c.g - c.b) / delta).rem_euclid(6.0))
    } else if max == c.g {
        60.0 * ((c.b - c.r) / delta + 2.0)
    } else {
        60.0 * ((c.r - c.g) / delta + 4.0)
    };
    let s = if max == 0.0 { 0.0 } else { delta / max };
    Hsv::new(h, s, max)
}

/// Converts HSV back to RGB.
pub fn hsv_to_rgb(c: Hsv) -> Rgb {
    let h = c.h.rem_euclid(360.0) / 60.0;
    let i = h.floor() as i64 % 6;
    let f = h - h.floor();
    let p = c.v * (1.0 - c.s);
    let q = c.v * (1.0 - c.s * f);
    let t = c.v * (1.0 - c.s * (1.0 - f));
    let (r, g, b) = match i {
        0 => (c.v, t, p),
        1 => (q, c.v, p),
        2 => (p, c.v, t),
        3 => (p, q, c.v),
        4 => (t, p, c.v),
        _ => (c.v, p, q),
    };
    Rgb::new(r, g, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_rgb_close(a: Rgb, b: Rgb, tol: f64) {
        assert!(
            (a.r - b.r).abs() < tol && (a.g - b.g).abs() < tol && (a.b - b.b).abs() < tol,
            "{a:?} != {b:?}"
        );
    }

    #[test]
    fn primary_colors() {
        let red = rgb_to_hsv(Rgb::new(1.0, 0.0, 0.0));
        assert!((red.h - 0.0).abs() < 1e-9 && (red.s - 1.0).abs() < 1e-9);
        let green = rgb_to_hsv(Rgb::new(0.0, 1.0, 0.0));
        assert!((green.h - 120.0).abs() < 1e-9);
        let blue = rgb_to_hsv(Rgb::new(0.0, 0.0, 1.0));
        assert!((blue.h - 240.0).abs() < 1e-9);
    }

    #[test]
    fn grays_have_zero_saturation() {
        for v in [0.0, 0.25, 0.5, 1.0] {
            let hsv = rgb_to_hsv(Rgb::new(v, v, v));
            assert_eq!(hsv.s, 0.0);
            assert!((hsv.v - v).abs() < 1e-12);
        }
    }

    #[test]
    fn round_trip_rgb_hsv_rgb() {
        for r in 0..6 {
            for g in 0..6 {
                for b in 0..6 {
                    let c = Rgb::new(r as f64 / 5.0, g as f64 / 5.0, b as f64 / 5.0);
                    let back = hsv_to_rgb(rgb_to_hsv(c));
                    assert_rgb_close(c, back, 1e-9);
                }
            }
        }
    }

    #[test]
    fn u8_round_trip() {
        let c = Rgb::from_u8(12, 200, 255);
        let (r, g, b) = c.to_u8();
        assert_eq!((r, g, b), (12, 200, 255));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Rgb::BLACK;
        let b = Rgb::WHITE;
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        let mid = a.lerp(b, 0.5);
        assert!((mid.r - 0.5).abs() < 1e-12);
    }

    #[test]
    fn constructor_clamps() {
        let c = Rgb::new(-1.0, 2.0, 0.5);
        assert_eq!((c.r, c.g, c.b), (0.0, 1.0, 0.5));
        let h = Hsv::new(-30.0, 1.5, -0.2);
        assert!((h.h - 330.0).abs() < 1e-9);
        assert_eq!((h.s, h.v), (1.0, 0.0));
    }

    #[test]
    fn hsv_point_is_in_unit_cube() {
        let p = Hsv::new(359.0, 0.7, 0.3).to_point();
        assert!(p.iter().all(|c| (0.0..=1.0).contains(c)));
    }
}

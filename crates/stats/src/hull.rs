//! 3-D convex hull volume, for summarizing the *shape* of a PRA point
//! cloud (the cross-domain cube comparison).
//!
//! Incremental ("beneath-beyond") construction: seed a non-degenerate
//! tetrahedron from extreme points, then insert the remaining points one
//! by one, replacing the faces each point can see with a fan over its
//! horizon. The volume follows from the divergence theorem over the
//! outward-oriented faces. Points are expected in a unit-scale box (the
//! PRA cube is `[0,1]³`); the degeneracy epsilon is absolute.
//!
//! Each face carries its normal `cross(b − a, c − a)`, computed once when
//! the face is created and dropped with it, so a face and its normal never
//! go out of step. A point sees a face when `dot(normal, p − a) > EPS`:
//! the operations, and their order, of `orient` itself, so every
//! visibility decision and the volume keep their bits. The old code, which
//! recomputed each normal for every point, is kept as a test reference.

type P3 = [f64; 3];

const EPS: f64 = 1e-9;

fn sub(a: P3, b: P3) -> P3 {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

fn cross(a: P3, b: P3) -> P3 {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

fn dot(a: P3, b: P3) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

fn norm2(a: P3) -> f64 {
    dot(a, a)
}

/// Signed distance-like quantity of `p` against the plane of face
/// `(a, b, c)` (positive on the side the face normal points to).
fn orient(a: P3, b: P3, c: P3, p: P3) -> f64 {
    dot(cross(sub(b, a), sub(c, a)), sub(p, a))
}

/// A hull face: vertex indices ordered so the normal points outward, the
/// first vertex's coordinates and the normal `cross(b − a, c − a)`.
struct Face {
    v: [usize; 3],
    a: P3,
    normal: P3,
}

impl Face {
    fn new(pts: &[P3], v: [usize; 3]) -> Self {
        let [a, b, c] = v.map(|i| pts[i]);
        Self {
            v,
            a,
            normal: cross(sub(b, a), sub(c, a)),
        }
    }

    /// [`orient`] of `p` against this face, from the cached normal.
    fn height(&self, p: P3) -> f64 {
        dot(self.normal, sub(p, self.a))
    }
}

/// Volume of the convex hull of `points`.
///
/// Degenerate inputs — fewer than four points, or all points (nearly)
/// coincident, collinear or coplanar — have zero volume and return 0.
/// Non-finite coordinates are ignored.
#[must_use]
pub fn convex_hull_volume(points: &[P3]) -> f64 {
    let pts: Vec<P3> = points
        .iter()
        .copied()
        .filter(|p| p.iter().all(|c| c.is_finite()))
        .collect();
    if pts.len() < 4 {
        return 0.0;
    }

    // Seed tetrahedron from extremes: i0 arbitrary, i1 farthest from i0,
    // i2 maximizing triangle area, i3 maximizing tetrahedron height.
    let i0 = 0;
    let Some(i1) = (0..pts.len())
        .max_by(|&a, &b| norm2(sub(pts[a], pts[i0])).total_cmp(&norm2(sub(pts[b], pts[i0]))))
    else {
        return 0.0;
    };
    if norm2(sub(pts[i1], pts[i0])) < EPS * EPS {
        return 0.0; // All points coincide.
    }
    let Some(i2) = (0..pts.len()).max_by(|&a, &b| {
        norm2(cross(sub(pts[i1], pts[i0]), sub(pts[a], pts[i0])))
            .total_cmp(&norm2(cross(sub(pts[i1], pts[i0]), sub(pts[b], pts[i0]))))
    }) else {
        return 0.0;
    };
    if norm2(cross(sub(pts[i1], pts[i0]), sub(pts[i2], pts[i0]))) < EPS * EPS {
        return 0.0; // All points collinear.
    }
    let Some(i3) = (0..pts.len()).max_by(|&a, &b| {
        orient(pts[i0], pts[i1], pts[i2], pts[a])
            .abs()
            .total_cmp(&orient(pts[i0], pts[i1], pts[i2], pts[b]).abs())
    }) else {
        return 0.0;
    };
    if orient(pts[i0], pts[i1], pts[i2], pts[i3]).abs() < EPS {
        return 0.0; // All points coplanar.
    }

    // Orient the four seed faces outward (each away from the opposite
    // vertex).
    let mut faces: Vec<Face> = Vec::new();
    for (face, opposite) in [
        ([i0, i1, i2], i3),
        ([i0, i1, i3], i2),
        ([i0, i2, i3], i1),
        ([i1, i2, i3], i0),
    ] {
        let [a, b, c] = face;
        if orient(pts[a], pts[b], pts[c], pts[opposite]) > 0.0 {
            faces.push(Face::new(&pts, [a, c, b]));
        } else {
            faces.push(Face::new(&pts, [a, b, c]));
        }
    }

    // Insert the remaining points.
    let mut visible: Vec<[usize; 3]> = Vec::new();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for p in 0..pts.len() {
        if p == i0 || p == i1 || p == i2 || p == i3 {
            continue;
        }
        visible.clear();
        visible.extend(faces.iter().filter(|f| f.height(pts[p]) > EPS).map(|f| f.v));
        if visible.is_empty() {
            continue; // Inside (or on) the current hull.
        }
        // Horizon: directed edges of visible faces whose reverse edge is
        // not an edge of another visible face.
        edges.clear();
        for &[a, b, c] in &visible {
            edges.extend([(a, b), (b, c), (c, a)]);
        }
        // Replace visible faces with the fan from the horizon to p.
        faces.retain(|f| !visible.contains(&f.v));
        for &(u, v) in &edges {
            if !edges.contains(&(v, u)) {
                faces.push(Face::new(&pts, [u, v, p]));
            }
        }
    }

    // Divergence theorem: the sum of signed tetrahedron volumes against
    // the origin over an outward-oriented closed surface is the enclosed
    // volume.
    let volume: f64 = faces
        .iter()
        .map(|f| {
            let [a, b, c] = f.v;
            dot(pts[a], cross(pts[b], pts[c])) / 6.0
        })
        .sum();
    volume.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube_corners() -> Vec<P3> {
        (0..8)
            .map(|i| {
                [
                    f64::from(i & 1),
                    f64::from((i >> 1) & 1),
                    f64::from((i >> 2) & 1),
                ]
            })
            .collect()
    }

    #[test]
    fn unit_cube_has_volume_one() {
        assert!((convex_hull_volume(&cube_corners()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn interior_points_do_not_change_the_hull() {
        let mut pts = cube_corners();
        pts.push([0.5, 0.5, 0.5]);
        pts.push([0.25, 0.75, 0.5]);
        assert!((convex_hull_volume(&pts) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unit_tetrahedron_is_one_sixth() {
        let pts = vec![
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ];
        assert!((convex_hull_volume(&pts) - 1.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_clouds_have_zero_volume() {
        assert_eq!(convex_hull_volume(&[]), 0.0);
        assert_eq!(convex_hull_volume(&[[0.1, 0.2, 0.3]; 10]), 0.0);
        // Collinear.
        let line: Vec<P3> = (0..10).map(|i| [f64::from(i) * 0.1, 0.0, 0.0]).collect();
        assert_eq!(convex_hull_volume(&line), 0.0);
        // Coplanar.
        let plane: Vec<P3> = (0..16)
            .map(|i| [f64::from(i % 4) * 0.3, f64::from(i / 4) * 0.3, 0.5])
            .collect();
        assert_eq!(convex_hull_volume(&plane), 0.0);
    }

    #[test]
    fn non_finite_points_are_ignored() {
        let mut pts = cube_corners();
        pts.push([f64::NAN, 0.5, 0.5]);
        pts.push([f64::INFINITY, 0.0, 0.0]);
        assert!((convex_hull_volume(&pts) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hull_volume_is_insertion_order_invariant() {
        let mut pts = cube_corners();
        pts.push([0.5, 0.5, 1.5]); // A pyramid on the top face: +1/6.
        let expected = 1.0 + 1.0 / 6.0;
        assert!((convex_hull_volume(&pts) - expected).abs() < 1e-9);
        pts.reverse();
        assert!((convex_hull_volume(&pts) - expected).abs() < 1e-9);
    }
}

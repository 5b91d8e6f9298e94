// Package geo provides geodesic primitives for drive-test trajectories:
// coordinates, distance/bearing math, local tangent-plane projection, and
// trajectory construction, resampling, and interpolation.
//
// All angles are degrees unless a name says otherwise; distances are metres;
// timestamps are seconds from an arbitrary epoch.
package geo

import (
	"fmt"
	"math"
)

// EarthRadius is the mean Earth radius in metres used by the spherical
// distance formulas.
const EarthRadius = 6371008.8

// Point is a WGS-84-style geographic coordinate.
type Point struct {
	Lat float64 // degrees, positive north
	Lon float64 // degrees, positive east
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lat, p.Lon)
}

func deg2rad(d float64) float64 { return d * math.Pi / 180 }
func rad2deg(r float64) float64 { return r * 180 / math.Pi }

// Distance returns the great-circle (haversine) distance in metres between
// two points.
func Distance(a, b Point) float64 {
	la1, la2 := deg2rad(a.Lat), deg2rad(b.Lat)
	dLat := la2 - la1
	dLon := deg2rad(b.Lon - a.Lon)
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(la1)*math.Cos(la2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadius * math.Asin(math.Sqrt(h))
}

// Bearing returns the initial great-circle bearing in degrees from a to b,
// normalized to [0, 360).
func Bearing(a, b Point) float64 {
	la1, la2 := deg2rad(a.Lat), deg2rad(b.Lat)
	dLon := deg2rad(b.Lon - a.Lon)
	y := math.Sin(dLon) * math.Cos(la2)
	x := math.Cos(la1)*math.Sin(la2) - math.Sin(la1)*math.Cos(la2)*math.Cos(dLon)
	brg := rad2deg(math.Atan2(y, x))
	return math.Mod(brg+360, 360)
}

// Offset returns the point reached by travelling dist metres from p along
// the given bearing (degrees).
func Offset(p Point, bearingDeg, dist float64) Point {
	la1 := deg2rad(p.Lat)
	lo1 := deg2rad(p.Lon)
	brg := deg2rad(bearingDeg)
	dr := dist / EarthRadius
	la2 := math.Asin(math.Sin(la1)*math.Cos(dr) + math.Cos(la1)*math.Sin(dr)*math.Cos(brg))
	lo2 := lo1 + math.Atan2(math.Sin(brg)*math.Sin(dr)*math.Cos(la1),
		math.Cos(dr)-math.Sin(la1)*math.Sin(la2))
	return Point{Lat: rad2deg(la2), Lon: rad2deg(lo2)}
}

// Projection is a local equirectangular tangent-plane projection anchored at
// an origin point. It maps geographic coordinates to planar (x east, y north)
// metre coordinates, accurate for extents of a few tens of kilometres —
// ample for drive-test regions.
type Projection struct {
	Origin Point
	cosLat float64
}

// NewProjection returns a projection anchored at origin.
func NewProjection(origin Point) *Projection {
	return &Projection{Origin: origin, cosLat: math.Cos(deg2rad(origin.Lat))}
}

// ToXY projects p to planar metres relative to the origin.
func (pr *Projection) ToXY(p Point) (x, y float64) {
	x = deg2rad(p.Lon-pr.Origin.Lon) * EarthRadius * pr.cosLat
	y = deg2rad(p.Lat-pr.Origin.Lat) * EarthRadius
	return x, y
}

// FromXY unprojects planar metre coordinates back to geographic coordinates.
func (pr *Projection) FromXY(x, y float64) Point {
	return Point{
		Lat: pr.Origin.Lat + rad2deg(y/EarthRadius),
		Lon: pr.Origin.Lon + rad2deg(x/(EarthRadius*pr.cosLat)),
	}
}

// PlanarDistance is the Euclidean distance between two points after
// projection through pr. It is cheaper than Distance and adequate for
// visibility queries within a region.
func (pr *Projection) PlanarDistance(a, b Point) float64 {
	ax, ay := pr.ToXY(a)
	bx, by := pr.ToXY(b)
	return math.Hypot(ax-bx, ay-by)
}

// GridSpan returns the inclusive range [first, last] of bucket indices,
// along one axis of a grid of the given bucket size, that can hold a point
// within r of coordinate c. The range is padded by one bucket on each side
// so rounding in the division cannot drop a boundary bucket, and clamped to
// the occupied indices [lo, hi], so its length never exceeds the grid's
// however large r is. first > last means no bucket; a NaN c or r gives that.
func GridSpan(c, r, size float64, lo, hi int) (first, last int) {
	f0 := math.Floor((c-r)/size) - 1
	f1 := math.Floor((c+r)/size) + 1
	if !(f0 <= f1) {
		return 1, 0
	}
	first, last = lo, hi
	if f0 > float64(lo) {
		first = int(min(f0, float64(hi)+1))
	}
	if f1 < float64(hi) {
		last = int(max(f1, float64(lo)-1))
	}
	return first, last
}

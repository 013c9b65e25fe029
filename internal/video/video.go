// Package video generates synthetic videos for the Croesus pipeline.
//
// The paper evaluates on five real videos (street traffic querying vehicles,
// street traffic querying pedestrians, mall surveillance, an airport runway,
// and a park pet video). This package substitutes deterministic synthetic
// scenes: each video is a sequence of frames populated by tracked objects
// that enter, move, and leave, with a per-object *difficulty* in [0,1] that
// summarizes everything that makes detection hard (size, occlusion, blur,
// lighting). The detection simulator consumes difficulty; the profiles below
// are calibrated so the edge model's accuracy per video matches the paper's
// ordering (airport easy, mall hard, and so on).
package video

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"croesus/internal/randsrc"
)

// Rect is an axis-aligned bounding box in normalized [0,1] frame
// coordinates.
type Rect struct {
	X, Y, W, H float64
}

// Area returns the box area (0 for degenerate boxes).
func (r Rect) Area() float64 {
	if r.W <= 0 || r.H <= 0 {
		return 0
	}
	return r.W * r.H
}

// Intersect returns the intersection of two boxes (possibly degenerate).
func (r Rect) Intersect(o Rect) Rect {
	x1 := math.Max(r.X, o.X)
	y1 := math.Max(r.Y, o.Y)
	x2 := math.Min(r.X+r.W, o.X+o.W)
	y2 := math.Min(r.Y+r.H, o.Y+o.H)
	if x2 <= x1 || y2 <= y1 {
		return Rect{}
	}
	return Rect{X: x1, Y: y1, W: x2 - x1, H: y2 - y1}
}

// IoU returns intersection-over-union, the overlap measure used when
// matching edge labels to cloud labels and predictions to ground truth.
func (r Rect) IoU(o Rect) float64 {
	inter := r.Intersect(o).Area()
	if inter == 0 {
		return 0
	}
	union := r.Area() + o.Area() - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// Clamp confines the box to the unit frame.
func (r Rect) Clamp() Rect {
	r.X = clampOrigin(r.X)
	r.Y = clampOrigin(r.Y)
	if r.X+r.W > 1 {
		r.W = 1 - r.X
	}
	if r.Y+r.H > 1 {
		r.H = 1 - r.Y
	}
	if r.W < 0 {
		r.W = 0
	}
	if r.H < 0 {
		r.H = 0
	}
	return r
}

// Object is a ground-truth object instance in one frame.
type Object struct {
	TrackID    int     // stable identity across frames
	Class      string  // label name, e.g. "person"
	Box        Rect    // position in the frame
	Difficulty float64 // 0 trivial … 1 nearly undetectable
}

// Frame is one video frame: ground truth plus transport metadata.
type Frame struct {
	Index     int
	At        time.Duration // capture timestamp at the configured FPS
	Width     int
	Height    int
	SizeBytes int // encoded size, drives link transfer time
	Objects   []Object
}

// ClassFreq gives the relative population of one object class in a scene.
type ClassFreq struct {
	Class string
	Freq  float64 // relative weight
}

// Profile describes a synthetic video workload.
type Profile struct {
	Name       string
	QueryClass string  // the class the application queries for
	FPS        float64 // capture rate
	Width      int
	Height     int

	// Scene population.
	Classes       []ClassFreq
	MeanObjects   float64 // average concurrent tracked objects
	MeanTrackLife int     // average frames an object stays in view
	ObjectSizeMin float64 // box side as a fraction of frame
	ObjectSizeMax float64
	Speed         float64 // mean per-frame displacement (fraction of frame)

	// Detection hardness of this scene for the *query* class.
	DifficultyMean float64
	DifficultyStd  float64
	// Hardness for background (non-query) classes.
	BackgroundDifficulty float64

	// Encoded frame size model: base plus per-object increment, jittered.
	FrameBytesBase      int
	FrameBytesPerObject int
}

func (p Profile) String() string {
	return fmt.Sprintf("%s (query=%q fps=%g)", p.Name, p.QueryClass, p.FPS)
}

// FrameInterval returns the capture interval implied by FPS.
func (p Profile) FrameInterval() time.Duration {
	if p.FPS <= 0 {
		return time.Second
	}
	return time.Duration(float64(time.Second) / p.FPS)
}

// track is the generator's internal moving object.
type track struct {
	obj       Object
	vx, vy    float64
	remaining int
}

// Generator produces the frames of a synthetic video deterministically from
// a seed. The same (Profile, seed) pair always yields the same video.
type Generator struct {
	prof     Profile
	rng      *rand.Rand
	tracks   []track
	nextID   int
	frameIdx int
}

// NewGenerator returns a generator for the given profile and seed.
func NewGenerator(p Profile, seed int64) *Generator {
	g := &Generator{prof: p, rng: randsrc.New(seed)}
	// Pre-populate the scene so frame 0 is not empty.
	initial := int(math.Round(p.MeanObjects))
	for i := 0; i < initial; i++ {
		g.spawn()
	}
	return g
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

func (g *Generator) pickClass() string {
	var total float64
	for _, c := range g.prof.Classes {
		total += c.Freq
	}
	r := g.rng.Float64() * total
	for _, c := range g.prof.Classes {
		if r < c.Freq {
			return c.Class
		}
		r -= c.Freq
	}
	return g.prof.Classes[len(g.prof.Classes)-1].Class
}

func (g *Generator) spawn() {
	p := g.prof
	class := g.pickClass()
	size := p.ObjectSizeMin + g.rng.Float64()*(p.ObjectSizeMax-p.ObjectSizeMin)
	diff := p.DifficultyMean
	if class != p.QueryClass {
		diff = p.BackgroundDifficulty
	}
	diff = clamp01(diff + g.rng.NormFloat64()*p.DifficultyStd)
	life := 1 + g.rng.Intn(2*maxInt(p.MeanTrackLife, 1))
	angle := g.rng.Float64() * 2 * math.Pi
	g.nextID++
	g.tracks = append(g.tracks, track{
		obj: Object{
			TrackID:    g.nextID,
			Class:      class,
			Box:        Rect{X: g.rng.Float64() * (1 - size), Y: g.rng.Float64() * (1 - size), W: size, H: size * (0.8 + 0.4*g.rng.Float64())}.Clamp(),
			Difficulty: diff,
		},
		vx:        math.Cos(angle) * p.Speed,
		vy:        math.Sin(angle) * p.Speed,
		remaining: life,
	})
}

// Next produces the next frame.
func (g *Generator) Next() *Frame {
	f := new(Frame)
	g.fill(f, nil)
	return f
}

// fill advances the scene one frame and writes it into f. The frame's
// Objects are carved from the front of free when they fit (allocated
// otherwise); fill returns what is left of free.
func (g *Generator) fill(f *Frame, free []Object) []Object {
	p := g.prof
	idx := g.frameIdx
	g.frameIdx++

	// Retire expired tracks, move the rest.
	alive := g.tracks[:0]
	for i := range g.tracks {
		t := &g.tracks[i]
		t.remaining--
		if t.remaining <= 0 {
			continue
		}
		t.obj.Box.X += t.vx + g.rng.NormFloat64()*p.Speed*0.2
		t.obj.Box.Y += t.vy + g.rng.NormFloat64()*p.Speed*0.2
		t.obj.Box = t.obj.Box.Clamp()
		if t.obj.Box.Area() == 0 { // drifted out of view
			continue
		}
		// Difficulty wanders slightly frame to frame (lighting, pose).
		t.obj.Difficulty = clamp01(t.obj.Difficulty + g.rng.NormFloat64()*0.02)
		alive = append(alive, *t)
	}
	g.tracks = alive

	// Births refill the population toward MeanObjects: the integer part of
	// the deficit is spawned immediately, the fractional part
	// stochastically, so the long-run mean tracks the target.
	deficit := p.MeanObjects - float64(len(g.tracks))
	births := 0
	if deficit > 0 {
		births = int(deficit)
		if g.rng.Float64() < deficit-float64(births) {
			births++
		}
	}
	for i := 0; i < births; i++ {
		g.spawn()
	}

	n := len(g.tracks)
	if len(free) < n || free == nil { // nil: an empty frame's Objects stay non-nil
		free = make([]Object, n)
	}
	// Capacity stops at n, so an append to one frame's Objects reallocates
	// instead of growing into the next frame's.
	objs := free[:n:n]
	for i := range g.tracks {
		objs[i] = g.tracks[i].obj
	}
	size := p.FrameBytesBase + p.FrameBytesPerObject*n
	size += int(g.rng.NormFloat64() * float64(size) * 0.05)
	if size < 1024 {
		size = 1024
	}
	*f = Frame{
		Index:     idx,
		At:        time.Duration(float64(idx) * float64(p.FrameInterval())),
		Width:     p.Width,
		Height:    p.Height,
		SizeBytes: size,
		Objects:   objs,
	}
	return free[n:]
}

// Generate produces the next n frames, carved from two allocations: the
// frames, and their objects (births top the scene up to at most
// ⌈MeanObjects⌉ tracks, so that many per frame always fit).
func (g *Generator) Generate(n int) []*Frame {
	frames := make([]*Frame, n)
	slab := make([]Frame, n)
	free := make([]Object, n*maxInt(int(math.Ceil(g.prof.MeanObjects)), 0))
	for i := range frames {
		frames[i] = &slab[i]
		free = g.fill(&slab[i], free)
	}
	return frames
}

// clampOrigin is math.Max(0, math.Min(v, 1)) without the two calls, which
// do not inline: NaN stays NaN and -0 becomes +0 (clamp01 keeps -0).
func clampOrigin(v float64) float64 {
	switch {
	case v > 1:
		return 1
	case v <= 0:
		return 0
	}
	return v
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

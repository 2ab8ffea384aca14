package matbgp

import (
	"sync"
	"testing"

	"beatbgp/internal/bgp"
	"beatbgp/internal/topology"
)

// fuzzWorlds caches generated topologies and lowered engines per seed:
// the fuzzer calls the target thousands of times and world generation
// dominates otherwise.
var fuzzWorlds sync.Map // seed -> *fuzzWorld

type fuzzWorld struct {
	topo *topology.Topo
	eng  *Engine
	ref  *bgp.Reference
}

func fuzzWorldFor(f *testing.F, seed uint64) *fuzzWorld {
	if w, ok := fuzzWorlds.Load(seed); ok {
		return w.(*fuzzWorld)
	}
	topo, err := topology.Generate(topology.GenConfig{
		Seed: seed, Tier1Count: 3, TransitsPerRegion: 2, EyeballsPerRegion: 4,
	})
	if err != nil {
		f.Fatalf("generate seed %d: %v", seed, err)
	}
	eng, err := NewEngine(topo)
	if err != nil {
		f.Fatalf("engine seed %d: %v", seed, err)
	}
	w := &fuzzWorld{topo: topo, eng: eng, ref: bgp.NewReference(topo)}
	fuzzWorlds.Store(seed, w)
	return w
}

// fuzzProgram reads a fuzz input byte by byte, yielding zeros once it
// is exhausted.
type fuzzProgram struct {
	b []byte
	i int
}

func (p *fuzzProgram) next() int {
	if p.i >= len(p.b) {
		return 0
	}
	p.i++
	return int(p.b[p.i-1])
}

func (p *fuzzProgram) more() bool { return p.i < len(p.b) }

// fuzzAnns decodes norigins announcements from a fuzz program: per
// origin, an origin byte and an op byte whose low bits select a prepend
// (op&3 == 3, op>>6 copies) and selective announcement (op&4, then one
// byte per origin neighbor, odd suppressing that link).
func fuzzAnns(topo *topology.Topo, norigins int, p *fuzzProgram) []bgp.Announcement {
	anns := make([]bgp.Announcement, 0, norigins)
	for k := 0; k < norigins; k++ {
		a := bgp.Announcement{Origin: p.next() % topo.NumASes()}
		op := p.next()
		if op&3 == 3 {
			a.Prepend = op >> 6
		}
		if op&4 != 0 {
			sup := map[int]bool{}
			for _, nb := range topo.Neighbors(a.Origin) {
				if p.next()&1 == 1 {
					sup[nb.Link] = true
				}
			}
			if len(sup) > 0 {
				a.SuppressLinks = sup
			}
		}
		anns = append(anns, a)
	}
	return anns
}

// FuzzMatbgpVsOracle drives both engines with fuzzer-chosen announcement
// sets — origins, prepends, selective announcement, failed links — over a
// handful of small worlds and requires bit-identical routes, offers, and
// error text. Run via `make fuzz-matbgp`.
func FuzzMatbgpVsOracle(f *testing.F) {
	const nseeds = 4
	worlds := make([]*fuzzWorld, nseeds)
	for i := range worlds {
		worlds[i] = fuzzWorldFor(f, uint64(i+1))
	}
	f.Add(uint64(1), []byte{0})
	f.Add(uint64(2), []byte{1, 7, 2, 200, 3})
	f.Add(uint64(3), []byte{9, 9, 4, 0, 44, 17, 255, 3, 128})
	f.Add(uint64(4), []byte{250, 251, 252, 253, 254, 255, 0, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, pick uint64, program []byte) {
		w := worlds[pick%nseeds]
		topo := w.topo
		// Decode the byte program into an announcement set plus failed
		// links. Every byte stream decodes to something valid-ish; invalid
		// sets (dup origins) are kept on purpose to compare error paths.
		var down map[int]bool
		p := &fuzzProgram{b: program}
		anns := fuzzAnns(topo, 1+p.next()%4, p)
		for k := p.next() % 4; k > 0; k-- {
			if down == nil {
				down = map[int]bool{}
			}
			down[p.next()%len(topo.Links)] = true
		}

		want, werr := w.ref.ComputeWithout(anns, down)
		got, gerr := w.eng.ComputeWithout(anns, down)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("error divergence: reference %v, matbgp %v", werr, gerr)
		}
		if werr != nil {
			if werr.Error() != gerr.Error() {
				t.Fatalf("error text divergence: reference %q, matbgp %q", werr, gerr)
			}
			return
		}
		requireSameRIB(t, topo, want, got, "oracle")
	})
}

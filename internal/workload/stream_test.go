package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"
	"unsafe"
)

// streamDigest is the FNV-1a digest of n events of g's stream, with a
// timer burst of 1100 instructions taken every 40k events (at 20k, 60k,
// ...), as the pipeline takes them between Next calls.
func streamDigest(g *Generator, n int) string {
	h := fnv.New64a()
	var buf [27]byte
	put := func(ev Event) {
		b := ev.Branch
		binary.LittleEndian.PutUint64(buf[0:], uint64(ev.Gap))
		binary.LittleEndian.PutUint64(buf[8:], b.PC)
		binary.LittleEndian.PutUint64(buf[16:], b.Target)
		buf[24] = byte(b.Kind)
		buf[25] = 0
		if b.Taken {
			buf[25] = 1
		}
		buf[26] = byte(ev.Priv)
		h.Write(buf[:])
	}
	for i := 0; i < n; i++ {
		if i%40_000 == 20_000 {
			for _, ev := range g.TimerBurst(1100) {
				put(ev)
			}
		}
		put(g.Next())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// streamDigests pins every profile's event stream at two seeds. A change
// to the generator's layout must leave each stream as it is: the golden
// digests of every experiment rest on these streams.
var streamDigests = map[string][2]string{
	"bwaves":    {"5e0dbd031bc47486", "8e985bea00739c10"},
	"cactuBSSN": {"9642b925168d44ba", "a9f68ae26609f12c"},
	"cam4":      {"dc72062dc3cb97ba", "e550ffcd9288c1a3"},
	"deepsjeng": {"e763e77cab0df2f8", "41c8760378268823"},
	"exchange2": {"57d5cd8ecc89ab50", "6a769aba92bf09da"},
	"fotonik3d": {"f4cab162bdce554b", "c62206a3c622728f"},
	"gcc":       {"99a5bd0117a5d4ad", "4657c1bfc32c52b0"},
	"imagick":   {"157ebb7b3087688a", "072d8c321d1f9eab"},
	"lbm":       {"88e326549c28eff1", "b438ed8b4d49854c"},
	"leela":     {"fed918b8d3196f75", "e18b531e6c1b08e0"},
	"mcf":       {"d303d3e9191f8874", "184464a222f15b9f"},
	"namd":      {"94debfb8f8190180", "ba756c8522a19ee4"},
	"omnetpp":   {"b4c7c42cc83f6308", "0bc152dfecf06d6e"},
	"perlbench": {"0435c7a51098ea24", "2bcdadbf79c8e65e"},
	"roms":      {"234daf503d2d449b", "4f0efdf3e6167adc"},
	"wrf":       {"611929756f4e6ce1", "852bad6fd06e40a2"},
	"x264":      {"cde476bb95bce1d6", "a931945930aa5853"},
	"xalancbmk": {"1ef9deb32e158ce6", "7b5c74fc739c19a5"},
	"xz":        {"204f0819cced4129", "bbcab25f7aab934a"},
}

func TestGeneratorStreamDigests(t *testing.T) {
	names := Names()
	if len(names) != 19 {
		t.Fatalf("%d profiles, want 19", len(names))
	}
	for _, name := range names {
		p := Get(name)
		var got [2]string
		for i, seed := range []uint64{1, 0x5eed_2022} {
			got[i] = streamDigest(New(p, seed), 200_000)
		}
		if want, ok := streamDigests[name]; !ok || got != want {
			t.Errorf("%s: stream digests %q, want %q", name, got, want)
		}
	}
}

func TestGeneratorFootprint(t *testing.T) {
	if s := unsafe.Sizeof(staticBranch{}); s > 24 {
		t.Errorf("staticBranch is %d bytes, want at most 24", s)
	}
	p := Get("fotonik3d")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := New(p, 1)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(g)
	if n := after.TotalAlloc - before.TotalAlloc; n > 180<<10 {
		t.Errorf("New(fotonik3d) allocated %d bytes, want at most %d", n, 180<<10)
	}
}

// BenchmarkNew is the cost of building the generator of the profile with
// the largest static branch set.
func BenchmarkNew(b *testing.B) {
	var p Profile
	for _, q := range Profiles() {
		if q.StaticBranches > p.StaticBranches {
			p = q
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(p, uint64(i))
	}
}

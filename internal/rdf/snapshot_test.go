package rdf_test

// Snapshot round-trip and fault-injection tests. The round-trip half
// instantiates the full differential backend suite over write→load
// cycles (both kinds × both loaders), pinning a loaded snapshot to
// byte-identical streams with the scan reference. The fault-
// injection half takes a valid image and breaks it every way the
// format documents — truncation at every boundary, a bit flip in
// every header/table byte and every section payload, version skew,
// endianness skew, lying offsets — and asserts each load fails with
// a descriptive error rather than a panic (the suite runs under
// -race in CI, so torn loads would also surface here).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"wdsparql/internal/rdf"
	"wdsparql/internal/rdf/backendtest"
)

// roundTrip writes g as a snapshot in dir and loads it back in the
// given mode. The returned Snapshot is registered for cleanup.
func roundTrip(t *testing.T, dir string, seq *int, g *rdf.Graph, mode rdf.SnapshotMode) *rdf.Snapshot {
	t.Helper()
	*seq++
	path := filepath.Join(dir, fmt.Sprintf("g%d.wdsnap", *seq))
	if err := g.WriteSnapshot(path); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	snap, err := rdf.LoadSnapshot(path, mode)
	if err != nil {
		t.Fatalf("LoadSnapshot(%v): %v", mode, err)
	}
	t.Cleanup(func() { snap.Close() })
	return snap
}

// TestSnapshotBackendSuite runs the differential backend suite over
// snapshot round-trips: every read of a loaded graph must be
// byte-identical (content and order) to the scan reference,
// for both graph kinds and both loaders.
func TestSnapshotBackendSuite(t *testing.T) {
	for _, cfg := range []struct {
		name   string
		shards int
		mode   rdf.SnapshotMode
	}{
		{"frozen/heap", 0, rdf.SnapshotHeap},
		{"frozen/mmap", 0, rdf.SnapshotMmap},
		{"sharded3/heap", 3, rdf.SnapshotHeap},
		{"sharded3/mmap", 3, rdf.SnapshotMmap},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			dir := t.TempDir()
			seq := 0
			backendtest.RunBackendSuite(t, func(ts []rdf.Triple) *rdf.Graph {
				var g *rdf.Graph
				if cfg.shards > 0 {
					g = rdf.GraphFromTriplesSharded(ts, cfg.shards)
				} else {
					g = rdf.GraphFromTriples(ts)
				}
				return roundTrip(t, dir, &seq, g, cfg.mode).Graph()
			})
		})
	}
}

// testGraph builds a deterministic graph with every structural feature
// the format serialises: multi-triple groups, shared predicates and
// objects, self-loops, and enough IRIs for non-trivial shard routing.
func testGraph(t *testing.T) []rdf.Triple {
	t.Helper()
	var ts []rdf.Triple
	for i := 0; i < 60; i++ {
		s := fmt.Sprintf("n%d", i)
		o := fmt.Sprintf("n%d", (i*7+3)%60)
		p := fmt.Sprintf("p%d", i%5)
		ts = append(ts, rdf.T(rdf.IRI(s), rdf.IRI(p), rdf.IRI(o)))
		if i%9 == 0 {
			ts = append(ts, rdf.T(rdf.IRI(s), rdf.IRI("loop"), rdf.IRI(s)))
		}
	}
	return ts
}

// writeTestSnapshot writes a snapshot of the deterministic test graph
// (sharded when shards ≥ 2) and returns its path and raw bytes.
func writeTestSnapshot(t *testing.T, dir string, shards int) (string, []byte) {
	t.Helper()
	ts := testGraph(t)
	var g *rdf.Graph
	if shards >= 2 {
		g = rdf.GraphFromTriplesSharded(ts, shards)
	} else {
		g = rdf.GraphFromTriples(ts)
	}
	path := filepath.Join(dir, fmt.Sprintf("test-%d.wdsnap", shards))
	if err := g.WriteSnapshot(path); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestSnapshotInfoAndInspect(t *testing.T) {
	dir := t.TempDir()
	path, data := writeTestSnapshot(t, dir, 3)
	snap, err := rdf.LoadSnapshot(path, rdf.SnapshotHeap)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	info := snap.Info()
	g := snap.Graph()
	if info.Kind != "sharded" || info.Shards != 3 {
		t.Errorf("Info kind/shards = %s/%d, want sharded/3", info.Kind, info.Shards)
	}
	if info.Triples != g.Len() || info.IRIs != g.Dict().NumIRIs() {
		t.Errorf("Info counts %d/%d disagree with graph %d/%d", info.Triples, info.IRIs, g.Len(), g.Dict().NumIRIs())
	}
	if info.FileSize != int64(len(data)) {
		t.Errorf("Info.FileSize = %d, want %d", info.FileSize, len(data))
	}
	if info.Mode != rdf.SnapshotHeap || info.Version != 1 {
		t.Errorf("Info mode/version = %v/%d", info.Mode, info.Version)
	}

	m, err := rdf.InspectSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Info.Checksum != info.Checksum || m.Info.Kind != "sharded" || m.Info.Triples != info.Triples {
		t.Errorf("Inspect disagrees with Load: %+v vs %+v", m.Info, info)
	}
	if len(m.Sections) == 0 {
		t.Fatal("Inspect returned no sections")
	}
	var payload uint64
	for _, s := range m.Sections {
		payload += s.Length
	}
	if payload > uint64(len(data)) {
		t.Errorf("section lengths sum to %d, beyond the %d-byte file", payload, len(data))
	}
}

func TestSnapshotVerifyDeep(t *testing.T) {
	dir := t.TempDir()
	for _, shards := range []int{0, 3} {
		path, _ := writeTestSnapshot(t, dir, shards)
		for _, mode := range []rdf.SnapshotMode{rdf.SnapshotHeap, rdf.SnapshotMmap} {
			snap, err := rdf.LoadSnapshot(path, mode)
			if err != nil {
				t.Fatalf("shards=%d mode=%v: %v", shards, mode, err)
			}
			if err := snap.VerifyDeep(); err != nil {
				t.Errorf("shards=%d mode=%v: VerifyDeep: %v", shards, mode, err)
			}
			snap.Close()
		}
	}
}

// TestSnapshotBuilderWrite covers the GraphBuilder path and the
// overlay path (WriteSnapshot compacts the overlay on demand).
func TestSnapshotBuilderWrite(t *testing.T) {
	dir := t.TempDir()
	b := rdf.NewGraphBuilder(8)
	b.AddTriple("a", "p", "b")
	b.AddTriple("b", "p", "c")
	path := filepath.Join(dir, "built.wdsnap")
	g, err := b.WriteSnapshot(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Sharded() || g.Len() != 2 {
		t.Fatalf("builder returned graph sharded=%v len=%d", g.Sharded(), g.Len())
	}
	snap, err := rdf.LoadSnapshot(path, rdf.SnapshotHeap)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if snap.Info().Kind != "sharded" || snap.Info().Shards != 2 {
		t.Errorf("loaded kind/shards = %s/%d", snap.Info().Kind, snap.Info().Shards)
	}

	unsealed := rdf.GraphOf(rdf.T(rdf.IRI("x"), rdf.IRI("p"), rdf.IRI("y")))
	path2 := filepath.Join(dir, "unsealed.wdsnap")
	if err := unsealed.WriteSnapshot(path2); err != nil {
		t.Fatalf("WriteSnapshot of unsealed graph: %v", err)
	}
	if unsealed.HasOverlay() {
		t.Error("WriteSnapshot must compact the overlay into the base")
	}

	if err := rdf.GraphOf().WriteSnapshot(filepath.Join(dir, "no/such/dir/x.wdsnap")); err == nil {
		t.Error("WriteSnapshot into a missing directory must fail")
	}
}

// TestSnapshotConcurrentReaders hammers one loaded graph from many
// goroutines; under -race this pins the loaded graph's concurrent-
// reader contract.
func TestSnapshotConcurrentReaders(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeTestSnapshot(t, dir, 3)
	snap, err := rdf.LoadSnapshot(path, rdf.SnapshotMmap)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	g := snap.Graph()
	ids := g.TriplesID()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ids); i += 2 {
				tr := ids[i]
				if !g.ContainsID(tr) {
					t.Errorf("lost triple %v", tr)
					return
				}
				g.MatchCountID(rdf.IDTriple{tr[0], rdf.VarID(0), rdf.VarID(1)})
				g.CandidatesID(rdf.IDTriple{rdf.VarID(0), tr[1], tr[2]})
			}
		}(w)
	}
	wg.Wait()
}

// --- fault injection ---------------------------------------------------

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fixHeaderCRC recomputes the header checksum after a deliberate
// header edit, so the test reaches the validation the edit targets
// instead of tripping the CRC first. The offsets pin DESIGN.md §6.
func fixHeaderCRC(b []byte) {
	binary.LittleEndian.PutUint32(b[60:64], crc32.Checksum(b[0:60], castagnoli))
}

// fixTableCRC recomputes the section-table checksum (and then the
// header's) after a deliberate table edit.
func fixTableCRC(b []byte) {
	n := int(binary.LittleEndian.Uint32(b[32:36]))
	binary.LittleEndian.PutUint32(b[36:40], crc32.Checksum(b[64:64+24*n], castagnoli))
	fixHeaderCRC(b)
}

// mustFailLoad writes img to a file and asserts that loading it fails
// with a descriptive error — and does not panic — in both modes.
func mustFailLoad(t *testing.T, dir, desc string, img []byte) {
	t.Helper()
	path := filepath.Join(dir, "corrupt.wdsnap")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []rdf.SnapshotMode{rdf.SnapshotHeap, rdf.SnapshotMmap} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s (%v): load panicked: %v", desc, mode, r)
				}
			}()
			snap, err := rdf.LoadSnapshot(path, mode)
			if err == nil {
				snap.Close()
				t.Errorf("%s (%v): load succeeded, want an error", desc, mode)
				return
			}
			if strings.TrimSpace(err.Error()) == "" {
				t.Errorf("%s (%v): empty error message", desc, mode)
			}
		}()
	}
}

// mutated returns a copy of data with f applied.
func mutated(data []byte, f func(b []byte)) []byte {
	b := make([]byte, len(data))
	copy(b, data)
	f(b)
	return b
}

func TestSnapshotCorruption(t *testing.T) {
	for _, shards := range []int{0, 3} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			path, data := writeTestSnapshot(t, dir, shards)

			t.Run("truncation", func(t *testing.T) {
				cuts := []int{0, 1, 7, 8, 63, 64, 65, len(data) / 2, len(data) - 1}
				for _, n := range cuts {
					mustFailLoad(t, dir, fmt.Sprintf("truncated to %d bytes", n), data[:n])
				}
			})

			t.Run("trailing-garbage", func(t *testing.T) {
				mustFailLoad(t, dir, "appended bytes", append(append([]byte{}, data...), 0xAA, 0xBB))
			})

			t.Run("not-a-snapshot", func(t *testing.T) {
				mustFailLoad(t, dir, "text file", []byte("a p b .\na p c .\nthis is not a snapshot\n"))
				junk := make([]byte, 4096)
				for i := range junk {
					junk[i] = byte(i*131 + 17)
				}
				mustFailLoad(t, dir, "random bytes", junk)
			})

			// Flip every byte of the CRC-covered header+table prefix:
			// each single flip must be caught.
			t.Run("prefix-bit-flips", func(t *testing.T) {
				nSec := int(binary.LittleEndian.Uint32(data[32:36]))
				prefix := 64 + 24*nSec
				if shards > 0 && testing.Short() {
					prefix = 64 + 24*8 // sharded tables are long; sample in -short
				}
				for off := 0; off < prefix; off++ {
					img := mutated(data, func(b []byte) { b[off] ^= 0x40 })
					mustFailLoad(t, dir, fmt.Sprintf("bit flip at byte %d", off), img)
				}
			})

			// Flip a byte in the middle of every non-empty section
			// payload: the per-section CRC must catch it.
			t.Run("payload-bit-flips", func(t *testing.T) {
				m, err := rdf.InspectSnapshot(path)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range m.Sections {
					if s.Length == 0 {
						continue
					}
					off := s.Offset + s.Length/2
					img := mutated(data, func(b []byte) { b[off] ^= 0x01 })
					mustFailLoad(t, dir, fmt.Sprintf("bit flip in section %s/shard%d", s.Name, s.Shard), img)
				}
			})

			t.Run("version-skew", func(t *testing.T) {
				img := mutated(data, func(b []byte) {
					binary.LittleEndian.PutUint16(b[8:10], 2)
					fixHeaderCRC(b)
				})
				mustFailLoad(t, dir, "future version", img)
				assertLoadErrContains(t, dir, img, "version")
			})

			t.Run("endian-skew", func(t *testing.T) {
				img := mutated(data, func(b []byte) {
					b[10] ^= 3 // 1 <-> 2
					fixHeaderCRC(b)
				})
				mustFailLoad(t, dir, "foreign endianness", img)
				assertLoadErrContains(t, dir, img, "endian")
			})

			t.Run("unknown-kind", func(t *testing.T) {
				img := mutated(data, func(b []byte) {
					b[11] = 9
					fixHeaderCRC(b)
				})
				mustFailLoad(t, dir, "unknown kind", img)
			})

			t.Run("lying-counts", func(t *testing.T) {
				img := mutated(data, func(b []byte) {
					binary.LittleEndian.PutUint64(b[16:24], 1<<40) // nTriples
					fixHeaderCRC(b)
				})
				mustFailLoad(t, dir, "inflated triple count", img)
				img = mutated(data, func(b []byte) {
					binary.LittleEndian.PutUint64(b[24:32], 1<<62) // nIRIs
					fixHeaderCRC(b)
				})
				mustFailLoad(t, dir, "inflated IRI count", img)
			})

			// Lying offsets, CRCs patched so only the bounds check can
			// catch them: the classic would-index-out-of-bounds attack.
			t.Run("lying-offsets", func(t *testing.T) {
				for entry := 0; entry < 3; entry++ {
					base := 64 + 24*entry
					img := mutated(data, func(b []byte) {
						binary.LittleEndian.PutUint64(b[base+8:base+16], uint64(len(b))+4096)
						fixTableCRC(b)
					})
					mustFailLoad(t, dir, fmt.Sprintf("entry %d offset past EOF", entry), img)
					img = mutated(data, func(b []byte) {
						binary.LittleEndian.PutUint64(b[base+16:base+24], uint64(len(b))*2)
						fixTableCRC(b)
					})
					mustFailLoad(t, dir, fmt.Sprintf("entry %d length past EOF", entry), img)
					img = mutated(data, func(b []byte) {
						off := binary.LittleEndian.Uint64(b[base+8 : base+16])
						binary.LittleEndian.PutUint64(b[base+8:base+16], off+1) // misaligned
						fixTableCRC(b)
					})
					mustFailLoad(t, dir, fmt.Sprintf("entry %d misaligned offset", entry), img)
				}
			})

			t.Run("duplicate-section", func(t *testing.T) {
				img := mutated(data, func(b []byte) {
					copy(b[64+24:64+48], b[64:64+24]) // entry 1 := entry 0
					fixTableCRC(b)
				})
				mustFailLoad(t, dir, "duplicated table entry", img)
			})
		})
	}
}

// assertLoadErrContains loads img (heap mode) and asserts the error
// mentions want — corruption must be descriptive, not just non-nil.
func assertLoadErrContains(t *testing.T, dir string, img []byte, want string) {
	t.Helper()
	path := filepath.Join(dir, "described.wdsnap")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := rdf.LoadSnapshot(path, rdf.SnapshotHeap)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("error %v does not mention %q", err, want)
	}
}

func TestSnapshotLoadMissingFile(t *testing.T) {
	for _, mode := range []rdf.SnapshotMode{rdf.SnapshotHeap, rdf.SnapshotMmap} {
		if _, err := rdf.LoadSnapshot(filepath.Join(t.TempDir(), "nope.wdsnap"), mode); err == nil {
			t.Errorf("mode %v: loading a missing file succeeded", mode)
		}
	}
}

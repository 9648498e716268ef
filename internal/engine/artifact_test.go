package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/ckt"
	"repro/internal/gen"
)

// requireSameCompiled asserts two handles are bit-identical in every
// compiled arena and in the underlying netlist structure.
func requireSameCompiled(t *testing.T, want, got *CompiledCircuit, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.TopoOrder(), got.TopoOrder()) {
		t.Fatalf("%s: topo order differs", label)
	}
	if !reflect.DeepEqual(want.ReverseTopoOrder(), got.ReverseTopoOrder()) {
		t.Fatalf("%s: reverse topo order differs", label)
	}
	if !reflect.DeepEqual(want.FanoutOffsets(), got.FanoutOffsets()) {
		t.Fatalf("%s: fanout offsets differ", label)
	}
	if !reflect.DeepEqual(want.FaninEdgeOffsets(), got.FaninEdgeOffsets()) {
		t.Fatalf("%s: fanin edge offsets differ", label)
	}
	wc, gc := want.Circuit(), got.Circuit()
	if wc.Name != gc.Name || len(wc.Gates) != len(gc.Gates) {
		t.Fatalf("%s: circuit header differs", label)
	}
	for id := range wc.Gates {
		a, b := wc.Gates[id], gc.Gates[id]
		if a.Name != b.Name || a.Type != b.Type || a.PO != b.PO ||
			!reflect.DeepEqual(a.Fanin, b.Fanin) || !reflect.DeepEqual(a.Fanout, b.Fanout) {
			t.Fatalf("%s: gate %d differs: %+v vs %+v", label, id, a, b)
		}
	}
	if !reflect.DeepEqual(wc.Inputs(), gc.Inputs()) ||
		!reflect.DeepEqual(wc.Outputs(), gc.Outputs()) ||
		!reflect.DeepEqual(wc.DFFs(), gc.DFFs()) {
		t.Fatalf("%s: source/output sequences differ", label)
	}
	wh, err := bench.ContentHash(wc)
	if err != nil {
		t.Fatal(err)
	}
	gh, err := bench.ContentHash(gc)
	if err != nil {
		t.Fatal(err)
	}
	if wh != gh {
		t.Fatalf("%s: content hash differs: %s vs %s", label, wh, gh)
	}
}

func testCircuit(t *testing.T, name string) *ckt.Circuit {
	t.Helper()
	c, err := gen.ISCAS85(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCompileStreamArenaIdentity proves Compile over the streaming
// parser (bench.ParseStream) produces handles bit-identical to
// Compile over the legacy bench.Parse on generated ISCAS-shaped
// circuits and the committed corpus shapes.
func TestCompileStreamArenaIdentity(t *testing.T) {
	check := func(name string, c *ckt.Circuit) {
		t.Helper()
		text, err := bench.Format(c)
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := bench.Parse(strings.NewReader(text), name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Compile(legacy)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := bench.ParseStream(strings.NewReader(text), name)
		if err != nil {
			t.Fatalf("ParseStream(%s): %v", name, err)
		}
		got, err := Compile(streamed)
		if err != nil {
			t.Fatal(err)
		}
		requireSameCompiled(t, want, got, name)
	}
	for _, name := range []string{"c17", "c432", "c1355", "c7552"} {
		check(name, testCircuit(t, name))
	}
	seq, err := gen.ISCAS89("s1196")
	if err != nil {
		t.Fatal(err)
	}
	check("s1196", seq)
}

// TestArtifactRoundTrip proves Save+Open reproduces a bit-identical
// handle, echoes the key, and that the store serves it as a hit.
func TestArtifactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := testCircuit(t, "c1355")
	want := MustCompile(c)
	path := filepath.Join(dir, "c1355.serc")
	if err := Save(path, "sha256:test-key", want); err != nil {
		t.Fatal(err)
	}
	got, key, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if key != "sha256:test-key" {
		t.Fatalf("key echo = %q", key)
	}
	requireSameCompiled(t, want, got, "c1355 artifact")

	store, err := NewArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Load("absent"); ok {
		t.Fatal("Load of absent key succeeded")
	}
	store.Save("k1", want)
	cc, ok := store.Load("k1")
	if !ok {
		t.Fatal("Load after Save missed")
	}
	requireSameCompiled(t, want, cc, "store round trip")
	st := store.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Saves != 1 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesMapped <= 0 {
		t.Fatalf("BytesMapped = %d, want > 0", st.BytesMapped)
	}
}

// TestArtifactCorruption proves every corruption mode fails Open with
// ErrArtifactCorrupt (or is rejected as a store miss) and never
// produces a handle — the "recompile, never a wrong result" policy.
func TestArtifactCorruption(t *testing.T) {
	dir := t.TempDir()
	want := MustCompile(testCircuit(t, "c432"))
	path := filepath.Join(dir, "a.serc")
	if err := Save(path, "k", want); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(name string, data []byte) {
		t.Helper()
		p := filepath.Join(dir, name+".serc")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cc, _, err := Open(p)
		if err == nil || cc != nil {
			t.Fatalf("%s: Open accepted corrupt artifact (err=%v)", name, err)
		}
		if name != "empty" && !errors.Is(err, ErrArtifactCorrupt) {
			t.Fatalf("%s: err = %v, want ErrArtifactCorrupt", name, err)
		}
	}
	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	mutate("magic", bad)
	// Flipped payload byte (checksum catches it).
	bad = append([]byte(nil), good...)
	bad[len(bad)-3] ^= 0x01
	mutate("flip", bad)
	// Truncated file.
	mutate("trunc", good[:len(good)/2])
	// Unsupported version.
	bad = append([]byte(nil), good...)
	bad[8] = 0xfe
	mutate("version", bad)
	// Garbage and empty files.
	mutate("garbage", bytes.Repeat([]byte{0xab}, 256))
	mutate("empty", nil)

	// The store treats a corrupt file as a counted miss and removes it.
	storeDir := t.TempDir()
	store, err := NewArtifactStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	// The store names files by the SHA-256 of the key; mirror that to
	// corrupt and shuffle files from the outside.
	fname := func(key string) string {
		sum := sha256.Sum256([]byte(key))
		return filepath.Join(storeDir, hex.EncodeToString(sum[:])+".serc")
	}
	store.Save("k2", want)
	if err := os.WriteFile(fname("k2"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Load("k2"); ok {
		t.Fatal("Load served a corrupt artifact")
	}
	if st := store.Stats(); st.Errors == 0 {
		t.Fatalf("corruption not counted: %+v", st)
	}
	if _, err := os.Stat(fname("k2")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt artifact not removed: %v", err)
	}
	// A key mismatch (file shuffled under another name) is also a miss.
	store.Save("k3", want)
	data, err := os.ReadFile(fname("k3"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fname("k4"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Load("k4"); ok {
		t.Fatal("Load served an artifact stored under a different key")
	}
	if _, ok := store.Load("k3"); !ok {
		t.Fatal("the original key stopped loading")
	}
}

// TestCacheArtifactSecondLevel proves a fresh cache over a warm
// artifact directory serves its first request without running the
// build — the serd warm-restart property at the engine level.
func TestCacheArtifactSecondLevel(t *testing.T) {
	dir := t.TempDir()
	c := testCircuit(t, "c880")
	build := func() (*CompiledCircuit, error) { return Compile(c) }

	store1, err := NewArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache1 := NewCacheWithArtifacts(0, store1)
	want, err := cache1.Get("sha256:c880", build)
	if err != nil {
		t.Fatal(err)
	}
	if st := store1.Stats(); st.Saves != 1 || st.Misses != 1 {
		t.Fatalf("first process stats = %+v", st)
	}

	// "Restart": new store, new cache, same directory. The build
	// function must not run.
	store2, err := NewArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache2 := NewCacheWithArtifacts(0, store2)
	builds := 0
	got, err := cache2.Get("sha256:c880", func() (*CompiledCircuit, error) {
		builds++
		return Compile(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	if builds != 0 {
		t.Fatalf("warm restart ran %d builds, want 0", builds)
	}
	if st := store2.Stats(); st.Hits != 1 || st.BytesMapped <= 0 {
		t.Fatalf("second process stats = %+v", st)
	}
	requireSameCompiled(t, want, got, "warm restart")

	// Second Get in the same process: in-memory hit, store untouched.
	if _, err := cache2.Get("sha256:c880", build); err != nil {
		t.Fatal(err)
	}
	if st := store2.Stats(); st.Hits != 1 {
		t.Fatalf("in-memory hit consulted the store: %+v", st)
	}
	if cs := cache2.Stats(); cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("cache stats = %+v", cs)
	}
}

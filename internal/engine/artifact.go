package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc64"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/ckt"
)

// The on-disk compiled-circuit artifact is a versioned flat binary:
//
//	header (32 bytes)
//	  [8]byte  magic "SERCCKT1"
//	  uint32   version (currently 1)
//	  uint32   reserved (0)
//	  uint64   payload length
//	  uint64   CRC-64/ECMA of the payload
//	payload (little-endian throughout)
//	  uint32 keyLen  | key bytes      cache key echo (content hash)
//	  uint32 nameLen | name bytes     circuit name
//	  uint32 nGates, nEdges, nPOs
//	  uint32 blobLen | blob bytes     concatenated gate names
//	  uint32[nGates+1]                name offsets into blob
//	  uint8[nGates]                   gate types
//	  uint32[nGates+1]                CSR fanin offsets
//	  uint32[nEdges]                  fanin gate IDs
//	  uint32[nPOs]                    primary-output gate IDs (mark order)
//
// Only the netlist structure is stored — never the derived arenas.
// Open rebuilds the handle through ckt.Build + Compile, which keeps
// artifacts small, makes forward compatibility a pure format concern,
// and guarantees the reopened handle is bit-identical to a fresh
// compile by construction (both run the same Compile). Any header,
// length, checksum or bounds violation fails Open; a corrupt artifact
// can therefore only ever cost a recompile, never a wrong result.

const (
	artifactMagic   = "SERCCKT1"
	artifactVersion = 1
	artifactHdrLen  = 32
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// ErrArtifactCorrupt is wrapped by Open for any structural violation:
// bad magic, unsupported version, truncated sections, checksum or
// bounds failures.
var ErrArtifactCorrupt = errors.New("engine: corrupt artifact")

// Save writes the compiled circuit's netlist as an artifact for key at
// path, atomically: the bytes land in a temp file in the same
// directory, are synced, and replace path with a rename. key is echoed
// into the artifact so Open can reject a file served under the wrong
// content address.
func Save(path, key string, cc *CompiledCircuit) error {
	if cc == nil {
		return fmt.Errorf("engine: save nil compiled circuit")
	}
	payload := appendArtifactPayload(nil, key, cc.c)
	buf := make([]byte, artifactHdrLen, artifactHdrLen+len(payload))
	copy(buf, artifactMagic)
	binary.LittleEndian.PutUint32(buf[8:], artifactVersion)
	binary.LittleEndian.PutUint64(buf[16:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(buf[24:], crc64.Checksum(payload, crcTable))
	buf = append(buf, payload...)

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".serc-tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// appendArtifactPayload serializes the netlist structure.
func appendArtifactPayload(buf []byte, key string, c *ckt.Circuit) []byte {
	n := len(c.Gates)
	nEdges := c.NumEdges()
	pos := c.Outputs()

	u32 := func(v int) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		buf = append(buf, b[:]...)
	}
	u32(len(key))
	buf = append(buf, key...)
	u32(len(c.Name))
	buf = append(buf, c.Name...)
	u32(n)
	u32(nEdges)
	u32(len(pos))

	blobLen := 0
	for _, g := range c.Gates {
		blobLen += len(g.Name)
	}
	u32(blobLen)
	for _, g := range c.Gates {
		buf = append(buf, g.Name...)
	}
	off := 0
	u32(off)
	for _, g := range c.Gates {
		off += len(g.Name)
		u32(off)
	}
	for _, g := range c.Gates {
		buf = append(buf, byte(g.Type))
	}
	e := 0
	u32(e)
	for _, g := range c.Gates {
		e += len(g.Fanin)
		u32(e)
	}
	for _, g := range c.Gates {
		for _, f := range g.Fanin {
			u32(f)
		}
	}
	for _, id := range pos {
		u32(id)
	}
	return buf
}

// Open reads an artifact, verifies header and checksum, and
// recompiles the stored netlist into a fresh handle. It returns the
// handle and the cache key the artifact was saved under. Every decoded
// structure is copied out of the file's bytes before return.
func Open(path string) (*CompiledCircuit, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	key, spec, err := decodeArtifact(data)
	if err != nil {
		return nil, "", err
	}
	c, err := ckt.Build(spec)
	if err != nil {
		return nil, "", fmt.Errorf("%w: %v", ErrArtifactCorrupt, err)
	}
	cc, err := Compile(c)
	if err != nil {
		return nil, "", fmt.Errorf("%w: %v", ErrArtifactCorrupt, err)
	}
	return cc, key, nil
}

// decodeArtifact validates the framing and decodes the payload into a
// BuildSpec. All strings and arrays are copies; data may be reused
// after return.
func decodeArtifact(data []byte) (string, ckt.BuildSpec, error) {
	var spec ckt.BuildSpec
	corrupt := func(what string) (string, ckt.BuildSpec, error) {
		return "", ckt.BuildSpec{}, fmt.Errorf("%w: %s", ErrArtifactCorrupt, what)
	}
	if len(data) < artifactHdrLen || string(data[:8]) != artifactMagic {
		return corrupt("bad magic")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != artifactVersion {
		return corrupt(fmt.Sprintf("unsupported version %d", v))
	}
	plen := binary.LittleEndian.Uint64(data[16:])
	if plen != uint64(len(data)-artifactHdrLen) {
		return corrupt("payload length mismatch")
	}
	payload := data[artifactHdrLen:]
	if crc64.Checksum(payload, crcTable) != binary.LittleEndian.Uint64(data[24:]) {
		return corrupt("checksum mismatch")
	}

	cur := 0
	u32 := func() (int, bool) {
		if cur+4 > len(payload) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(payload[cur:])
		cur += 4
		return int(v), true
	}
	str := func() (string, bool) {
		l, ok := u32()
		if !ok || l < 0 || cur+l > len(payload) {
			return "", false
		}
		s := string(payload[cur : cur+l])
		cur += l
		return s, true
	}
	key, ok := str()
	if !ok {
		return corrupt("truncated key")
	}
	name, ok := str()
	if !ok {
		return corrupt("truncated name")
	}
	nGates, ok1 := u32()
	nEdges, ok2 := u32()
	nPOs, ok3 := u32()
	if !ok1 || !ok2 || !ok3 {
		return corrupt("truncated counts")
	}
	// Every gate costs at least 9 payload bytes (two offset words and a
	// type byte) and every edge/PO 4; bound the counts against the
	// remaining payload before allocating so a corrupt header cannot
	// force gigantic makes.
	remaining := len(payload) - cur
	if nGates < 0 || nEdges < 0 || nPOs < 0 ||
		nGates > remaining/9 || nEdges > remaining/4 || nPOs > remaining/4 {
		return corrupt("section sizes out of range")
	}
	blob, ok := str()
	if !ok {
		return corrupt("truncated name blob")
	}
	nameOff := make([]int, nGates+1)
	for i := range nameOff {
		v, ok := u32()
		if !ok || v < 0 || v > len(blob) || (i > 0 && v < nameOff[i-1]) {
			return corrupt("bad name offsets")
		}
		nameOff[i] = v
	}
	if nameOff[0] != 0 || nameOff[nGates] != len(blob) {
		return corrupt("name offsets do not cover blob")
	}
	names := make([]string, nGates)
	for i := range names {
		names[i] = blob[nameOff[i]:nameOff[i+1]]
	}
	if cur+nGates > len(payload) {
		return corrupt("truncated types")
	}
	types := make([]ckt.GateType, nGates)
	for i := range types {
		types[i] = ckt.GateType(payload[cur+i])
	}
	cur += nGates
	faninOff := make([]int32, nGates+1)
	for i := range faninOff {
		v, ok := u32()
		if !ok {
			return corrupt("truncated fanin offsets")
		}
		faninOff[i] = int32(v)
	}
	fanin := make([]int32, nEdges)
	for i := range fanin {
		v, ok := u32()
		if !ok {
			return corrupt("truncated fanin edges")
		}
		fanin[i] = int32(v)
	}
	outputs := make([]int32, nPOs)
	for i := range outputs {
		v, ok := u32()
		if !ok {
			return corrupt("truncated outputs")
		}
		outputs[i] = int32(v)
	}
	if cur != len(payload) {
		return corrupt("trailing bytes")
	}
	spec = ckt.BuildSpec{
		Name:      name,
		GateNames: names,
		Types:     types,
		FaninOff:  faninOff,
		Fanin:     fanin,
		Outputs:   outputs,
	}
	return key, spec, nil
}

// ArtifactStats is a point-in-time snapshot of an ArtifactStore's
// counters. BytesMapped accumulates the sizes of every artifact read
// on a hit over the store's lifetime; the name is kept for the wire.
type ArtifactStats struct {
	Hits, Misses, Saves, Errors, BytesMapped int64
}

// ArtifactStore is a directory of compiled-circuit artifacts keyed by
// cache key (content hash or benchmark name): the persistent second
// level under engine.Cache. Load treats every failure — missing file,
// truncation, checksum mismatch, key mismatch — as a miss, removing
// the offending file so the next Save rewrites it; corruption can only
// cost a recompile.
type ArtifactStore struct {
	dir string

	hits, misses, saves, errs, bytesMapped atomic.Int64
}

// NewArtifactStore opens (creating if necessary) an artifact directory.
func NewArtifactStore(dir string) (*ArtifactStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("engine: empty artifact directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &ArtifactStore{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *ArtifactStore) Dir() string { return s.dir }

// path maps a cache key to its artifact file. Keys are hashed so any
// key (including "sha256:..." and "name:..." forms) yields a safe
// fixed-length filename; the key echo inside the artifact guards the
// (astronomically unlikely) hash collision and manual file shuffles.
func (s *ArtifactStore) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+".serc")
}

// Load returns the artifact-backed compiled circuit for key, or
// ok=false on any miss (absent or unusable file).
func (s *ArtifactStore) Load(key string) (*CompiledCircuit, bool) {
	p := s.path(key)
	st, err := os.Stat(p)
	if err != nil {
		s.misses.Add(1)
		if !errors.Is(err, fs.ErrNotExist) {
			s.errs.Add(1)
		}
		return nil, false
	}
	cc, storedKey, err := Open(p)
	if err != nil {
		s.misses.Add(1)
		s.errs.Add(1)
		os.Remove(p) // best effort: let the next Save rewrite it
		return nil, false
	}
	if storedKey != key {
		s.misses.Add(1)
		s.errs.Add(1)
		os.Remove(p)
		return nil, false
	}
	s.hits.Add(1)
	s.bytesMapped.Add(st.Size())
	return cc, true
}

// Save persists the compiled circuit under key, best effort: failures
// only bump the error counter (the in-memory cache still holds the
// handle; a lost artifact costs a recompile after the next restart).
func (s *ArtifactStore) Save(key string, cc *CompiledCircuit) {
	if err := Save(s.path(key), key, cc); err != nil {
		s.errs.Add(1)
		return
	}
	s.saves.Add(1)
}

// Stats snapshots the counters.
func (s *ArtifactStore) Stats() ArtifactStats {
	return ArtifactStats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Saves:       s.saves.Load(),
		Errors:      s.errs.Load(),
		BytesMapped: s.bytesMapped.Load(),
	}
}

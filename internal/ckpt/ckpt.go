// Package ckpt provides atomic, checksummed full-training-state
// checkpoints: model weights, optimizer moments and step counter, the
// epoch reached and the construction RNG seed. A checkpoint is everything
// needed to resume training bitwise-identically after a crash — restoring
// weights alone is not enough, because momentum/Adam updates depend on the
// accumulated moments and (for bias correction) the step count.
//
// Files are written atomically: the state is serialized to a temp file in
// the destination directory, fsynced, then renamed over the final path, so
// a crash mid-write never leaves a truncated checkpoint under the real
// name. The whole payload carries a trailing CRC-32C, so a torn or
// bit-flipped file is rejected on load rather than silently resuming from
// garbage.
package ckpt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"agnn/internal/gnn"
	"agnn/internal/obs/metrics"
	"agnn/internal/tensor"
)

// Two on-disk generations: CKP2 adds the world size the snapshot was taken
// at (informational — replicated weights make checkpoints world-size
// independent, which is what lets elastic recovery repartition on restore).
// CKP1 files still load, reporting WorldSize 0 (unknown).
const (
	magic   = "AGNNCKP2"
	magicV1 = "AGNNCKP1"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// DefaultRetain is how many most-recent checkpoints Save keeps on disk;
// older ones are pruned after each successful write.
const DefaultRetain = 3

// State is the resumable training position. Opt may be nil when the
// optimizer is stateless (or training hasn't started).
type State struct {
	Epoch int64         // epochs fully completed before this snapshot
	Seed  int64         // construction seed — resume must rebuild the same model
	World int64         // rank count the snapshot was taken at (0 = unknown / single-node)
	Opt   *gnn.OptState // optimizer moments + step, aligned with the params sequence
}

type crcWriter struct {
	w io.Writer
	h hash.Hash32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	if n > 0 {
		c.h.Write(p[:n])
	}
	return n, err
}

type crcReader struct {
	r  io.Reader
	h  hash.Hash32
	on bool
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 && c.on {
		c.h.Write(p[:n])
	}
	return n, err
}

// Path returns the canonical checkpoint filename for an epoch.
func Path(dir string, epoch int64) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%08d.agnn", epoch))
}

// Save atomically writes a checkpoint for the given state and parameter
// sequence to Path(dir, st.Epoch) and returns that path.
func Save(dir string, st State, params []*gnn.Param) (string, error) {
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	final := Path(dir, st.Epoch)
	tmp, err := os.CreateTemp(dir, ".ckpt-*.tmp")
	if err != nil {
		return "", err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename

	if err := write(tmp, st, params); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		return "", err
	}
	if err := os.Rename(tmpName, final); err != nil {
		return "", err
	}
	// Persist the rename itself (directory entry) where the platform allows.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	// Retention: now that the new checkpoint is durable, drop the oldest
	// ones beyond the keep window. Best-effort — a prune error must not
	// fail the save that just succeeded.
	Prune(dir, DefaultRetain)
	metrics.CheckpointSeconds.Observe(time.Since(t0).Seconds())
	return final, nil
}

// Prune removes all but the keep highest-epoch checkpoint files in dir and
// returns the removed paths. keep < 1 is treated as 1 — pruning never
// deletes the latest checkpoint.
func Prune(dir string, keep int) ([]string, error) {
	if keep < 1 {
		keep = 1
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	type ck struct {
		epoch int64
		name  string
	}
	var cks []ck
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var ep int64
		if _, err := fmt.Sscanf(e.Name(), "ckpt-%d.agnn", &ep); err != nil {
			continue
		}
		cks = append(cks, ck{epoch: ep, name: e.Name()})
	}
	if len(cks) <= keep {
		return nil, nil
	}
	sort.Slice(cks, func(i, j int) bool { return cks[i].epoch > cks[j].epoch })
	var removed []string
	var firstErr error
	for _, c := range cks[keep:] {
		p := filepath.Join(dir, c.name)
		if err := os.Remove(p); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		removed = append(removed, p)
	}
	return removed, firstErr
}

func write(w io.Writer, st State, params []*gnn.Param) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw, h: crc32.New(crcTable)}
	if _, err := io.WriteString(cw, magic); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, []int64{st.Epoch, st.Seed, st.World}); err != nil {
		return err
	}
	if err := writeOptState(cw, st.Opt); err != nil {
		return err
	}
	// Weights ride as a length-prefixed embedded AGNNWTS2 blob, so the gnn
	// serializer stays the single source of truth for the weight format.
	var wbuf bytes.Buffer
	if err := gnn.SaveParams(&wbuf, params); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, int64(wbuf.Len())); err != nil {
		return err
	}
	if _, err := cw.Write(wbuf.Bytes()); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, cw.h.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, int64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n < 0 || n > 1<<16 {
		return "", fmt.Errorf("ckpt: corrupt string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func writeOptState(w io.Writer, st *gnn.OptState) error {
	if st == nil {
		return binary.Write(w, binary.LittleEndian, byte(0))
	}
	if err := binary.Write(w, binary.LittleEndian, byte(1)); err != nil {
		return err
	}
	if err := writeString(w, st.Algo); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, st.Step); err != nil {
		return err
	}
	names := make([]string, 0, len(st.Slots))
	for name := range st.Slots {
		names = append(names, name)
	}
	sort.Strings(names) // map order must not leak into the file bytes
	if err := binary.Write(w, binary.LittleEndian, int64(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		if err := writeString(w, name); err != nil {
			return err
		}
		slot := st.Slots[name]
		if err := binary.Write(w, binary.LittleEndian, int64(len(slot))); err != nil {
			return err
		}
		for _, tns := range slot {
			hdr := []int64{int64(tns.Rows), int64(tns.Cols)}
			if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
				return err
			}
			if err := binary.Write(w, binary.LittleEndian, tns.Data); err != nil {
				return err
			}
		}
	}
	return nil
}

func readOptState(r io.Reader, size int64) (*gnn.OptState, error) {
	var present byte
	if err := binary.Read(r, binary.LittleEndian, &present); err != nil {
		return nil, fmt.Errorf("ckpt: truncated optimizer section: %w", err)
	}
	if present == 0 {
		return nil, nil
	}
	algo, err := readString(r)
	if err != nil {
		return nil, err
	}
	st := &gnn.OptState{Algo: algo, Slots: make(map[string][]*tensor.Dense)}
	if err := binary.Read(r, binary.LittleEndian, &st.Step); err != nil {
		return nil, err
	}
	var nslots int64
	if err := binary.Read(r, binary.LittleEndian, &nslots); err != nil {
		return nil, err
	}
	if nslots < 0 || nslots > 16 {
		return nil, fmt.Errorf("ckpt: corrupt slot count %d", nslots)
	}
	for s := int64(0); s < nslots; s++ {
		name, err := readString(r)
		if err != nil {
			return nil, err
		}
		var ntensors int64
		if err := binary.Read(r, binary.LittleEndian, &ntensors); err != nil {
			return nil, err
		}
		if ntensors < 0 || ntensors > size/16 { // a tensor is at least its shape
			return nil, fmt.Errorf("ckpt: corrupt tensor count %d in slot %q", ntensors, name)
		}
		slot := make([]*tensor.Dense, ntensors)
		for i := range slot {
			var hdr [2]int64
			if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
				return nil, err
			}
			if hdr[0] < 0 || hdr[1] < 0 || (hdr[0] > 0 && hdr[1] > size/8/hdr[0]) {
				return nil, fmt.Errorf("ckpt: corrupt tensor shape %d×%d", hdr[0], hdr[1])
			}
			tns := tensor.NewDense(int(hdr[0]), int(hdr[1]))
			if err := binary.Read(r, binary.LittleEndian, tns.Data); err != nil {
				return nil, err
			}
			slot[i] = tns
		}
		st.Slots[name] = slot
	}
	return st, nil
}

// Load reads a checkpoint, restores the weights into params (which must
// match the saved parameter inventory) and returns the training state. The
// caller imports st.Opt into its optimizer.
func Load(path string, params []*gnn.Param) (State, error) {
	f, err := os.Open(path)
	if err != nil {
		return State{}, err
	}
	defer f.Close()
	return read(f, params)
}

func read(r io.Reader, params []*gnn.Param) (State, error) {
	// The whole file first: every count a header declares is then checked
	// against the bytes there are before anything is sized by it.
	raw, err := io.ReadAll(r)
	if err != nil {
		return State{}, err
	}
	size := int64(len(raw))
	br := bytes.NewReader(raw)
	cr := &crcReader{r: br, h: crc32.New(crcTable), on: true}
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(cr, got); err != nil {
		return State{}, fmt.Errorf("ckpt: truncated header: %w", err)
	}
	if string(got) != magic && string(got) != magicV1 {
		return State{}, fmt.Errorf("ckpt: bad magic %q", got)
	}
	var st State
	var hdr [2]int64
	if err := binary.Read(cr, binary.LittleEndian, &hdr); err != nil {
		return State{}, fmt.Errorf("ckpt: truncated header: %w", err)
	}
	st.Epoch, st.Seed = hdr[0], hdr[1]
	if string(got) == magic {
		if err := binary.Read(cr, binary.LittleEndian, &st.World); err != nil {
			return State{}, fmt.Errorf("ckpt: truncated header: %w", err)
		}
	}
	opt, err := readOptState(cr, size)
	if err != nil {
		return State{}, err
	}
	st.Opt = opt
	var wlen int64
	if err := binary.Read(cr, binary.LittleEndian, &wlen); err != nil {
		return State{}, fmt.Errorf("ckpt: truncated weights section: %w", err)
	}
	if wlen < 0 || wlen > size {
		return State{}, fmt.Errorf("ckpt: corrupt weights length %d", wlen)
	}
	wblob := make([]byte, wlen)
	if _, err := io.ReadFull(cr, wblob); err != nil {
		return State{}, fmt.Errorf("ckpt: truncated weights section: %w", err)
	}
	cr.on = false
	var want uint32
	if err := binary.Read(br, binary.LittleEndian, &want); err != nil {
		return State{}, fmt.Errorf("ckpt: missing checksum trailer: %w", err)
	}
	if sum := cr.h.Sum32(); sum != want {
		return State{}, fmt.Errorf("ckpt: checksum mismatch (file %08x, computed %08x)", want, sum)
	}
	// Only install the weights once the whole file has verified — a corrupt
	// checkpoint must not half-mutate the model.
	if err := gnn.LoadParams(bytes.NewReader(wblob), params); err != nil {
		return State{}, err
	}
	return st, nil
}

// Latest scans dir for checkpoint files and returns the path with the
// highest epoch. ok is false when the directory holds no checkpoints (or
// does not exist) — that is the cold-start case, not an error.
func Latest(dir string) (path string, epoch int64, ok bool, err error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return "", 0, false, nil
	}
	if err != nil {
		return "", 0, false, err
	}
	best := int64(-1)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var ep int64
		if _, err := fmt.Sscanf(e.Name(), "ckpt-%d.agnn", &ep); err != nil {
			continue
		}
		if ep > best {
			best = ep
			path = filepath.Join(dir, e.Name())
		}
	}
	if best < 0 {
		return "", 0, false, nil
	}
	return path, best, true, nil
}

// Package checkpoint bounds recovery work and WAL growth. A fuzzy
// checkpoint is a checksummed file pairing a page-store image with the WAL
// position it reflects (plus the transactions in flight at that barrier);
// once one is durable, every log segment that lies entirely below it is
// dead weight and can be deleted. Recovery then replays only the suffix
// above the newest complete checkpoint, falling back to full replay when
// none is valid — a crash during checkpointing degrades, never corrupts.
//
// The file is written in place (no rename dance) because the checksum is
// the validity criterion: a torn or half-written checkpoint simply fails
// verification and is skipped, exactly like a torn WAL frame.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/frame"
	"repro/internal/storage"
)

// Checkpoint file layout: | magic "OODBCKPT" (8) | version u32 | followed
// by one frame (internal/frame: length, crc32c, payload) that runs to the
// end of the file. The payload is:
//
//	LSN u64 | OldestActive u64 | MaxTxn u64 | NextPage u64 | PageSize u64 |
//	UnixNano i64 |
//	uvarint active count | active owners as uvarint-length-prefixed strings |
//	uvarint page count | pages as (id uvarint, uvarint-length-prefixed data),
//	sorted by id
const (
	ckptMagic   = "OODBCKPT"
	ckptVersion = 1
	ckptPrefix  = "ckpt-"
	ckptSuffix  = ".ck"
	// ckptHeader is magic + version, the bytes before the frame.
	ckptHeader = 8 + 4
	// payloadFixed is the fixed-width prefix of the payload.
	payloadFixed = 8 * 6
)

// Checkpoint errors.
var (
	// ErrNoCheckpoint means the directory holds no complete, verifiable
	// checkpoint — recovery must replay the full log.
	ErrNoCheckpoint = errors.New("checkpoint: no valid checkpoint")
	// ErrCheckpointCorrupt marks a file that exists but fails the magic,
	// length, or checksum test — a torn write from a crash mid-checkpoint.
	// Such files are skipped, never trusted.
	ErrCheckpointCorrupt = errors.New("checkpoint: file torn or corrupt")
)

// Snapshot is the logical content of one checkpoint: the store image as of
// LSN plus what recovery needs to resume analysis from there.
type Snapshot struct {
	// LSN is the barrier position: Pages reflects exactly the updates of
	// records with LSN ≤ this, and all such records are durable on disk
	// before the checkpoint file is written (WAL-force rule).
	LSN uint64
	// OldestActive is the smallest first-record LSN among Active (0 when
	// none) — the truncation floor that keeps every loser's undo records.
	OldestActive uint64
	// MaxTxn is the highest transaction id allocated at the barrier, so a
	// restart never re-issues ids whose records were truncated away.
	MaxTxn uint64
	// NextPage and PageSize rebuild the store's allocation state.
	NextPage storage.PageID
	PageSize int
	// UnixNano is the wall-clock write time (informational; waldump).
	UnixNano int64
	// Active lists the root transactions in flight at the barrier.
	Active []string
	// Pages is the full page image.
	Pages map[storage.PageID]string
}

// TruncateBelow returns the first LSN that must survive log truncation
// under this checkpoint: everything the image already covers is deletable
// except records of transactions still in flight at the barrier.
func (s *Snapshot) TruncateBelow() uint64 {
	keep := s.LSN + 1
	if s.OldestActive != 0 && s.OldestActive < keep {
		keep = s.OldestActive
	}
	return keep
}

// FileName returns the checkpoint file name for a barrier LSN. Zero-padded
// so lexical order is LSN order, mirroring WAL segment naming.
func FileName(lsn uint64) string {
	return fmt.Sprintf("%s%020d%s", ckptPrefix, lsn, ckptSuffix)
}

// encode returns the whole checkpoint file for s.
func encode(s *Snapshot) []byte {
	buf := make([]byte, 0, ckptHeader+frame.HeaderSize+payloadFixed+64*len(s.Active)+64*len(s.Pages))
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, ckptVersion)
	buf, start := frame.Begin(buf)
	for _, v := range [...]uint64{s.LSN, s.OldestActive, s.MaxTxn, uint64(s.NextPage), uint64(s.PageSize), uint64(s.UnixNano)} {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Active)))
	for _, owner := range s.Active {
		buf = frame.AppendString(buf, owner)
	}
	ids := make([]storage.PageID, 0, len(s.Pages))
	for id := range s.Pages {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = frame.AppendString(buf, s.Pages[id])
	}
	return frame.End(buf, start)
}

// decodePayload copies each string (frame.NewDecoder, not the view
// decoder): the one payload holds every page, and a view of it would let
// one surviving page pin the whole checkpoint.
func decodePayload(payload []byte) (*Snapshot, error) {
	d := frame.NewDecoder(payload)
	s := &Snapshot{
		LSN:          d.U64(),
		OldestActive: d.U64(),
		MaxTxn:       d.U64(),
		NextPage:     storage.PageID(d.U64()),
		PageSize:     int(d.U64()),
		UnixNano:     int64(d.U64()),
	}
	for n := d.Count(); n > 0; n-- {
		s.Active = append(s.Active, d.String())
	}
	n := d.Count()
	s.Pages = make(map[storage.PageID]string, n)
	for ; n > 0; n-- {
		id := storage.PageID(d.Uvarint())
		s.Pages[id] = d.String()
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCheckpointCorrupt, err)
	}
	return s, nil
}

// Write persists a checkpoint file for s in dir, fsyncs it and the
// directory, and returns the file path. The caller must have forced the
// WAL durable through s.LSN first. The ckpt.write failpoint fires between
// the two halves of the payload so an injected delay plus a SIGKILL lands a
// torn file — which the checksum then rejects at read time.
func Write(dir string, s *Snapshot) (string, error) {
	buf := encode(s)
	path := filepath.Join(dir, FileName(s.LSN))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	half := ckptHeader + frame.HeaderSize + (len(buf)-ckptHeader-frame.HeaderSize)/2
	werr := func() error {
		if _, err := f.Write(buf[:half]); err != nil {
			return err
		}
		// Mid-body failpoint: an error here abandons the half-written file,
		// a delay here holds the file torn while a crash can land on it.
		if err := fpCkptWrite.Inject(); err != nil {
			return err
		}
		if _, err := f.Write(buf[half:]); err != nil {
			return err
		}
		return f.Sync()
	}()
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		// Best-effort cleanup; a leftover partial file is harmless either
		// way (the checksum rejects it).
		os.Remove(path)
		return "", werr
	}
	if err := storage.SyncDir(dir); err != nil {
		return "", err
	}
	return path, nil
}

// Load reads and verifies one checkpoint file. Torn, truncated, or
// bit-rotted files return ErrCheckpointCorrupt.
func Load(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := filepath.Base(path)
	if len(raw) < ckptHeader || string(raw[:8]) != ckptMagic {
		return nil, fmt.Errorf("%w: %s: bad magic or short header", ErrCheckpointCorrupt, name)
	}
	if v := binary.LittleEndian.Uint32(raw[8:]); v != ckptVersion {
		return nil, fmt.Errorf("%w: %s: version %d", ErrCheckpointCorrupt, name, v)
	}
	body := raw[ckptHeader:]
	payload, n, err := frame.Parse(body, payloadFixed, math.MaxInt)
	if err == nil && n != len(body) {
		err = fmt.Errorf("%d bytes past the frame", len(body)-n)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrCheckpointCorrupt, name, err)
	}
	s, err := decodePayload(payload)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return s, nil
}

// FileInfo names one checkpoint file found in a directory.
type FileInfo struct {
	Name string
	// LSN is parsed from the file name (the claimed barrier position; only
	// Load proves the file complete).
	LSN uint64
}

// Scan lists checkpoint files in dir, ascending by LSN. Files whose names
// do not parse are ignored.
func Scan(dir string) ([]FileInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var infos []FileInfo
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasPrefix(n, ckptPrefix) || !strings.HasSuffix(n, ckptSuffix) {
			continue
		}
		lsn, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(n, ckptPrefix), ckptSuffix), 10, 64)
		if perr != nil {
			continue
		}
		infos = append(infos, FileInfo{Name: n, LSN: lsn})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].LSN < infos[j].LSN })
	return infos, nil
}

// Latest returns the newest complete checkpoint in dir, skipping torn or
// corrupt files (newest-first). ErrNoCheckpoint when none verifies.
func Latest(dir string) (*Snapshot, string, error) {
	infos, err := Scan(dir)
	if err != nil {
		return nil, "", err
	}
	for i := len(infos) - 1; i >= 0; i-- {
		path := filepath.Join(dir, infos[i].Name)
		s, lerr := Load(path)
		if lerr == nil {
			return s, path, nil
		}
		if !errors.Is(lerr, ErrCheckpointCorrupt) {
			return nil, "", lerr
		}
	}
	return nil, "", ErrNoCheckpoint
}

// Prune deletes checkpoint files older than keepLSN (the newest complete
// checkpoint's barrier). Runs after truncation so that a crash at any
// earlier point still leaves a checkpoint the surviving log covers.
func Prune(dir string, keepLSN uint64) (int, error) {
	infos, err := Scan(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, info := range infos {
		if info.LSN >= keepLSN {
			continue
		}
		if err := os.Remove(filepath.Join(dir, info.Name)); err != nil {
			return removed, err
		}
		removed++
	}
	if removed > 0 {
		if err := storage.SyncDir(dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// TruncateSegments deletes every WAL segment whose records all fall below
// keepLSN (see Snapshot.TruncateBelow). A segment spans [its first LSN,
// next segment's first LSN), so segment i is dead iff segment i+1 starts
// at or below the boundary; the newest segment is never deleted. Deletion
// runs in ascending LSN order, so a crash partway leaves a contiguous log
// suffix — just with a few extra dead segments that the next checkpoint
// reclaims. The ckpt.truncate failpoint fires before each unlink. Returns
// the number of segments removed.
func TruncateSegments(dir string, keepLSN uint64) (int, error) {
	segs, err := storage.WALSegments(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	finish := func(err error) (int, error) {
		if removed > 0 {
			if derr := storage.SyncDir(dir); err == nil && derr != nil {
				err = derr
			}
		}
		return removed, err
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].FirstLSN > keepLSN {
			break
		}
		if err := fpCkptTruncate.Inject(); err != nil {
			return finish(err)
		}
		if err := os.Remove(filepath.Join(dir, segs[i].Name)); err != nil {
			return finish(err)
		}
		removed++
	}
	return finish(nil)
}

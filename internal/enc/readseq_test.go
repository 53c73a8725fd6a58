package enc

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/storage"
)

// joinSeqOracle is the split-and-join rendering joinSeq replaced: one
// string per item, then one Join.
func joinSeqOracle(seq string, read func(storage.PageID) (string, error)) (string, error) {
	if seq == "" {
		return "", nil
	}
	var out []string
	for _, pair := range strings.Split(seq, ";") {
		k, ref, found := strings.Cut(pair, ":")
		if !found {
			return "", fmt.Errorf("enc: corrupt list entry %q", pair)
		}
		pid, err := parseRef(ref)
		if err != nil {
			return "", err
		}
		text, err := read(pid)
		if err != nil {
			return "", err
		}
		out = append(out, k+"="+text)
	}
	return strings.Join(out, ";"), nil
}

// TestJoinSeqMatchesOracle: on random list replies — empty keys and texts,
// corrupt entries, bad refs, failing item reads — joinSeq returns the
// oracle's bytes or its error, and reads the same items in the same order.
func TestJoinSeqMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	errRead := errors.New("item read failed")
	for i := 0; i < 3000; i++ {
		n := r.Intn(6)
		pairs := make([]string, n)
		texts := map[storage.PageID]string{}
		for j := range pairs {
			k := strings.Repeat("k", r.Intn(3)) + strconv.Itoa(j)
			if r.Intn(8) == 0 {
				k = ""
			}
			ref := strconv.Itoa(1 + r.Intn(50))
			texts[storage.PageID(1+r.Intn(50))] = strings.Repeat("t", r.Intn(4))
			switch r.Intn(12) {
			case 0:
				pairs[j] = k + ref // no ':'
			case 1:
				pairs[j] = k + ":x" + ref // bad ref
			default:
				pairs[j] = k + ":" + ref
			}
		}
		seq := strings.Join(pairs, ";")
		if n == 1 && r.Intn(4) == 0 {
			seq += ";" // a trailing empty entry
		}
		failAt := storage.PageID(r.Intn(60))
		reader := func(got *[]storage.PageID) func(storage.PageID) (string, error) {
			return func(pid storage.PageID) (string, error) {
				*got = append(*got, pid)
				if pid == failAt {
					return "", errRead
				}
				return texts[pid], nil
			}
		}
		var gotReads, wantReads []storage.PageID
		got, gotErr := joinSeq(seq, reader(&gotReads))
		want, wantErr := joinSeqOracle(seq, reader(&wantReads))
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("joinSeq(%q) = %q, %v; oracle %q, %v", seq, got, gotErr, want, wantErr)
		}
		if fmt.Sprint(gotReads) != fmt.Sprint(wantReads) {
			t.Fatalf("joinSeq(%q) read %v, oracle %v", seq, gotReads, wantReads)
		}
	}
}

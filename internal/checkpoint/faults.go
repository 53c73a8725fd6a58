package checkpoint

import "repro/internal/fault"

// The checkpoint subsystem's failpoints. Both are disarmed by default;
// chaos -round crash arms them to land SIGKILLs mid-checkpoint and
// mid-truncation, proving recovery degrades to an older checkpoint or a
// full replay instead of corrupting.
var (
	// fpCkptWrite fires between the two halves of the checkpoint body —
	// a delay holds the file torn (checksum-invalid) across a crash
	// window; an error abandons the attempt.
	fpCkptWrite = fault.Point("ckpt.write")
	// fpCkptTruncate fires before each dead segment's unlink — a crash
	// here leaves extra history behind, never a log gap.
	fpCkptTruncate = fault.Point("ckpt.truncate")
)

// Tenant checkpoints: the rolling profile plus its window accounting,
// written atomically at every cut so a daemon restart resumes the rolling
// merge where it left off. Only the merged aggregate is persisted — the
// analyzer's in-flight state (shadow memory, open stacks) is execution-
// local and dies with its epoch; after a restart, new epochs merge on top
// of the restored aggregate exactly as they would have on the live one.
package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/trace"
)

const (
	// checkpointMagic heads every checkpoint file; the trailing byte is the
	// format version. Version 2 frames its two blocks with internal/block.
	checkpointMagic = "APRDCKP\x02"
	// checkpointExt is the checkpoint file suffix under CheckpointDir.
	checkpointExt = ".aprofdck"

	// The two blocks of a checkpoint, in this order.
	blockMeta    = 'M' // checkpointMeta as JSON
	blockProfile = 'P' // the rolling profile's canonical Export
)

// checkpointFormat is the tenant checkpoint's view of the block framing.
var checkpointFormat = block.Format{Kinds: string([]byte{blockMeta, blockProfile}), MaxPayload: 1 << 31}

// checkpointMeta is the checkpoint's accounting header, stored as JSON in
// the first block.
type checkpointMeta struct {
	// Tenant is the owning tenant's name.
	Tenant string `json:"tenant"`
	// Windows is the number of windows folded into the profile.
	Windows int `json:"windows"`
	// Events is the number of events those windows analyzed.
	Events uint64 `json:"events"`
	// Degraded records that some connection died mid-stream before this
	// checkpoint.
	Degraded bool `json:"degraded"`
}

// loadedCheckpoint is a parsed checkpoint.
type loadedCheckpoint struct {
	Meta    checkpointMeta
	profile *core.Profile
}

// writeCheckpoint atomically persists a tenant checkpoint: magic, meta
// block, profile-export block.
func writeCheckpoint(path string, meta checkpointMeta, export []byte) error {
	mj, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, len(checkpointMagic)+len(mj)+len(export)+32)
	buf = append(buf, checkpointMagic...)
	buf = block.Append(buf, blockMeta, mj)
	buf = block.Append(buf, blockProfile, export)
	_, err = trace.AtomicWriteFile(path, buf)
	return err
}

// loadCheckpoint reads a tenant checkpoint. A missing file (or an empty
// path: checkpointing disabled) is (nil, nil); a present-but-corrupt file
// is an error — the caller starts fresh but should say so. Only the bytes
// writeCheckpoint would write for what is loaded are accepted: a meta
// block that does not re-marshal to itself, or a profile that does not
// re-export to itself, is corrupt too.
func loadCheckpoint(path string) (*loadedCheckpoint, error) {
	if path == "" {
		return nil, nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	if !bytes.HasPrefix(b, []byte(checkpointMagic)) {
		return nil, fmt.Errorf("daemon: %s is not a version-2 checkpoint file", path)
	}
	blocks, err := checkpointFormat.Split(b, len(checkpointMagic))
	if err != nil {
		return nil, fmt.Errorf("daemon: checkpoint: %w", err)
	}
	if len(blocks) != 2 || blocks[0].Kind != blockMeta || blocks[1].Kind != blockProfile {
		return nil, fmt.Errorf("daemon: checkpoint: want a meta block and a profile block")
	}
	mj, export := blocks[0].Payload, blocks[1].Payload
	ck := &loadedCheckpoint{}
	if err := json.Unmarshal(mj, &ck.Meta); err != nil {
		return nil, fmt.Errorf("daemon: checkpoint meta: %w", err)
	}
	if again, err := json.Marshal(ck.Meta); err != nil || !bytes.Equal(again, mj) {
		return nil, fmt.Errorf("daemon: checkpoint meta is not canonical")
	}
	if ck.profile, err = core.ReadJSON(bytes.NewReader(export)); err != nil {
		return nil, fmt.Errorf("daemon: checkpoint profile: %w", err)
	}
	if again, err := ck.profile.Export(); err != nil || !bytes.Equal(again, export) {
		return nil, fmt.Errorf("daemon: checkpoint profile is not canonical")
	}
	return ck, nil
}

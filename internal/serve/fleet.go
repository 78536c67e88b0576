package serve

import (
	"bytes"
	"io"
	"os"
	"path/filepath"

	"gemini/internal/atomicfile"
	"gemini/internal/fleet"
)

// fleetCheckpointPath maps a fleet sweep id to its DataDir checkpoint.
func (s *Server) fleetCheckpointPath(id string) string {
	return filepath.Join(s.cfg.DataDir, id+".ckpt")
}

// persistFleetCheckpoint merges a completed fleet sweep's canonical
// checkpoint into the server's session, so a /sweep of the same spec
// restores its cells at once, and writes it to DataDir/<id>.ckpt (atomic
// temp+rename, persistence-tracker accounting), which every later server
// start merges too. A fleet sweep and a /sweep of the same spec therefore
// resume each other's cells.
func (s *Server) persistFleetCheckpoint(id string, data []byte) {
	if err := s.ses.LoadCheckpoint(bytes.NewReader(data)); err != nil {
		s.logf("serve: fleet sweep %s: checkpoint merge failed: %v", id, err)
	}
	if s.cfg.DataDir == "" {
		return
	}
	path := s.fleetCheckpointPath(id)
	write := func() error {
		return atomicfile.Write(path, func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		})
	}
	if err := s.persist.Do(write); err != nil {
		s.logf("serve: fleet sweep %s: checkpoint save failed: %v", id, err)
		return
	}
	s.logf("serve: fleet sweep %s: canonical checkpoint saved to %s", id, path)
}

// loadFleetCheckpoint hands the coordinator a prior checkpoint for a
// submitted fleet sweep id: the fleet sweep's own <id>.ckpt if one is on
// disk, else — when a /sweep ran under that id — the session's cells, which
// are what that sweep's checkpoint holds. A re-submitted fleet sweep, or a
// fleet sweep continuing a /sweep, then starts from the settled cells; a new
// id starts from nothing.
func (s *Server) loadFleetCheckpoint(id string) []byte {
	if s.cfg.DataDir != "" {
		if b, err := os.ReadFile(s.fleetCheckpointPath(id)); err == nil {
			return b
		}
	}
	if _, ok := s.lookup(id); !ok {
		return nil
	}
	var buf bytes.Buffer
	if err := s.ses.SaveCheckpoint(&buf); err != nil {
		return nil
	}
	return buf.Bytes()
}

// newFleetCoordinator builds the server's fleet coordinator, bound to the
// server's logging, grid cap, session and DataDir persistence.
func (s *Server) newFleetCoordinator() *fleet.Coordinator {
	return fleet.NewCoordinator(fleet.CoordinatorConfig{
		LeaseTTL:       s.cfg.FleetLeaseTTL,
		MaxCells:       s.cfg.maxCells(),
		Logf:           s.logf,
		Persist:        s.persistFleetCheckpoint,
		LoadCheckpoint: s.loadFleetCheckpoint,
	})
}

package serve

import (
	"io"
	"os"

	"gemini/internal/atomicfile"
	"gemini/internal/fleet"
)

// persistFleetCheckpoint writes a completed fleet sweep's canonical merged
// checkpoint to the same DataDir file a /sweep checkpoint of that id would
// use (atomic temp+rename, persistence-tracker accounting). A fleet sweep
// and a later /sweep of the same spec therefore resume each other's cells.
func (s *Server) persistFleetCheckpoint(id string, data []byte) {
	path := s.checkpointPath(id)
	if path == "" {
		return
	}
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
// submitted fleet sweep id, if one is on disk; a re-submitted fleet sweep
// then starts from its predecessor's settled cells.
func (s *Server) loadFleetCheckpoint(id string) []byte {
	path := s.checkpointPath(id)
	if path == "" {
		return nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	return b
}

// newFleetCoordinator builds the server's fleet coordinator, bound to the
// server's logging, grid cap and DataDir persistence.
func (s *Server) newFleetCoordinator() *fleet.Coordinator {
	return fleet.NewCoordinator(fleet.CoordinatorConfig{
		LeaseTTL:       s.cfg.FleetLeaseTTL,
		MaxCells:       s.cfg.maxCells(),
		Logf:           s.logf,
		Persist:        s.persistFleetCheckpoint,
		LoadCheckpoint: s.loadFleetCheckpoint,
	})
}

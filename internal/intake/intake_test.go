// Tests of the sweep registry: the 409 for an id an active record holds,
// the 503 when every held record is active, supersede-and-move-to-end and
// eviction of the oldest finished records.
package intake

import (
	"fmt"
	"net/http"
	"slices"
	"testing"
)

// rec is a registry record whose activity a test flips.
type rec struct {
	name   string
	active bool
}

func (r *rec) Active() bool { return r.active }

// names lists g's records in registration order.
func names(g *Registry[*rec]) []string {
	var out []string
	for r := range g.All() {
		out = append(out, r.name)
	}
	return out
}

// code is e's status code, 0 for nil.
func code(e *Error) int {
	if e == nil {
		return 0
	}
	return e.Code
}

// TestRegistryRefusesActiveID: an id held by an active record is refused with
// 409 until that record finishes; other ids pass.
func TestRegistryRefusesActiveID(t *testing.T) {
	var g Registry[*rec]
	a := &rec{name: "a", active: true}
	g.Put("a", a)
	if c := code(g.Check("a")); c != http.StatusConflict {
		t.Errorf("Check of an active id = %d, want 409", c)
	}
	if c := code(g.Check("b")); c != 0 {
		t.Errorf("Check of a free id = %d, want ok", c)
	}
	a.active = false
	if c := code(g.Check("a")); c != 0 {
		t.Errorf("Check of a finished id = %d, want ok", c)
	}
}

// TestRegistrySupersedeMovesToEnd: a Put under a finished record's id
// replaces it and moves the id to the end of the order.
func TestRegistrySupersedeMovesToEnd(t *testing.T) {
	var g Registry[*rec]
	for _, id := range []string{"a", "b", "c"} {
		g.Put(id, &rec{name: id})
	}
	again := &rec{name: "a", active: true}
	g.Put("a", again)
	if got := names(&g); !slices.Equal(got, []string{"b", "c", "a"}) {
		t.Errorf("order after the re-Put %v, want [b c a]", got)
	}
	if got, ok := g.Get("a"); !ok || got != again || g.Len() != 3 {
		t.Errorf("Get(a) = %v, %t with %d records; want the new record among 3", got, ok, g.Len())
	}
}

// TestRegistryEvictsOldestFinished: past RegistryCap records, Put evicts the
// oldest finished records and keeps every active one, however old.
func TestRegistryEvictsOldestFinished(t *testing.T) {
	var g Registry[*rec]
	g.Put("live", &rec{name: "live", active: true})
	for i := 0; i < RegistryCap+2; i++ {
		id := fmt.Sprintf("done-%04d", i)
		g.Put(id, &rec{name: id})
	}
	got := names(&g)
	if len(got) != RegistryCap || got[0] != "live" || got[1] != "done-0003" || got[len(got)-1] != fmt.Sprintf("done-%04d", RegistryCap+1) {
		t.Errorf("%d records from %s, %s to %s; want %d: live, then done-0003 on", len(got), got[0], got[1], got[len(got)-1], RegistryCap)
	}
}

// TestRegistryFullOfActiveRecordsRefuses: with RegistryCap records held and
// none finished, Put could evict nothing, so Check refuses every id with 503;
// once one record finishes, a new id is admitted in its place.
func TestRegistryFullOfActiveRecordsRefuses(t *testing.T) {
	var g Registry[*rec]
	recs := make([]*rec, RegistryCap)
	for i := range recs {
		recs[i] = &rec{name: fmt.Sprintf("run-%04d", i), active: true}
		g.Put(recs[i].name, recs[i])
	}
	if c := code(g.Check("new")); c != http.StatusServiceUnavailable {
		t.Fatalf("Check with %d active records = %d, want 503", RegistryCap, c)
	}
	if c := code(g.Check("run-0000")); c != http.StatusConflict {
		t.Errorf("Check of a held active id = %d, want 409", c)
	}
	recs[7].active = false
	if c := code(g.Check("new")); c != 0 {
		t.Fatalf("Check with one finished record = %d, want ok", c)
	}
	g.Put("new", &rec{name: "new", active: true})
	if _, ok := g.Get("run-0007"); ok || g.Len() != RegistryCap {
		t.Errorf("Put kept the finished record or grew to %d records", g.Len())
	}
}

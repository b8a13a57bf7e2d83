package pagefile

import "testing"

// TestCommitKeepsPublishedPages: a memory-backed writer commits before it
// publishes, so a commit can see frees whose pages the still-published
// snapshot references. Even with no reader pinned, they must stay in limbo
// until the writer's AdvanceEpoch: a reader may pin the current epoch and
// load that snapshot at any moment before then.
func TestCommitKeepsPublishedPages(t *testing.T) {
	m := newMemManager(t, 128)
	id, err := m.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(id, []byte("published")); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitMeta(nil); err != nil {
		t.Fatal(err)
	}
	m.AdvanceEpoch()

	// The next mutation frees the page and commits, but has not published.
	if err := m.FreeDeferred(id); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitMeta(nil); err != nil {
		t.Fatal(err)
	}
	pin := m.PinEpoch()
	got, err := m.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if got == id {
		t.Fatalf("page %d of the published snapshot was recycled before the next publish", id)
	}
	m.UnpinEpoch(pin)
	if n := m.LimboPages(); n != 1 {
		t.Fatalf("LimboPages = %d before the publish, want 1", n)
	}
	m.AdvanceEpoch()
	if n := m.LimboPages(); n != 0 {
		t.Fatalf("LimboPages = %d after the publish with no reader pinned, want 0", n)
	}
}

package serve

import (
	"testing"

	"tensordimm/internal/isa"
)

// TestConfigRejectsQueueShallowerThanWorkers pins the sizing rule
// documented on Config: a queue shallower than the worker pool is
// rejected — both when set explicitly and when Workers is defaulted from
// the deployments' slots.
func TestConfigRejectsQueueShallowerThanWorkers(t *testing.T) {
	cfg := testConfig(2, 2, 128, false, isa.RAdd)
	d := newDeployment(t, cfg, 8, 2, 2)
	defer d.Release()

	if _, err := New(Config{Workers: 4, QueueDepth: 2}, d); err == nil {
		t.Fatal("want error for QueueDepth < Workers")
	}
	// Workers defaulted from slots (2) with an explicit QueueDepth of 1
	// must be rejected by the post-default check.
	if _, err := New(Config{QueueDepth: 1}, d); err == nil {
		t.Fatal("want error for defaulted Workers exceeding QueueDepth")
	}
	// Equal is allowed: one queue slot per worker.
	s, err := New(Config{Workers: 2, QueueDepth: 2}, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConfigDefaultQueueDepthTracksWorkers pins that a defaulted
// QueueDepth grows with a worker pool larger than 256 instead of
// rejecting it: a caller asking only for more workers must not trip the
// QueueDepth >= Workers rule through the default.
func TestConfigDefaultQueueDepthTracksWorkers(t *testing.T) {
	cfg := testConfig(2, 2, 128, false, isa.RAdd)
	d := newDeployment(t, cfg, 8, 2, 2)
	defer d.Release()

	s, err := New(Config{Workers: 300}, d)
	if err != nil {
		t.Fatalf("Workers 300 with defaulted QueueDepth rejected: %v", err)
	}
	if s.cfg.QueueDepth != 300 {
		t.Fatalf("defaulted QueueDepth = %d, want 300 (= Workers)", s.cfg.QueueDepth)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

package actor

import "testing"

func TestNewSystemNilContext(t *testing.T) {
	s := NewSystemContext(nil, "t", nil) //nolint:staticcheck // nil tolerance is the point
	if s.Context() == nil {
		t.Fatal("nil ctx not defaulted")
	}
	ref := s.SpawnFunc("ok", func() error { return nil })
	<-ref.Done()
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

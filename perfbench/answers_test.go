package main

import "testing"

func TestAnswerCheckRejectsSwappedClass(t *testing.T) {
	r := &refs{Classes: map[int][]int{4: {1, 2, 3}, 12: {1, 0, 3}}, Float: []int{1, 0, 2}}
	if err := r.check(1, 12, 0); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	if err := r.check(1, 4, 2); err != nil {
		t.Fatalf("correct low-rung answer rejected: %v", err)
	}
	// Swap the classes of images 0 and 2: both answers must fail.
	if err := r.check(0, 12, 3); err == nil {
		t.Error("swapped class for image 0 accepted")
	}
	if err := r.check(2, 12, 1); err == nil {
		t.Error("swapped class for image 2 accepted")
	}
	// The right class echoed at the wrong rung is still wrong.
	if err := r.check(1, 4, 0); err == nil {
		t.Error("class checked against the wrong rung accepted")
	}
	if err := r.check(1, 8, 0); err == nil {
		t.Error("answer at a rung with no reference accepted")
	}
	if err := r.check(3, 12, 0); err == nil {
		t.Error("image outside the pool accepted")
	}
}

func TestAgreement(t *testing.T) {
	r := &refs{Classes: map[int][]int{4: {1, 2, 3, 0}, 12: {1, 0, 2, 0}}, Float: []int{1, 0, 2, 1}}
	if got := r.agreement(4); got != 0.25 {
		t.Errorf("agreement(4) = %v, want 0.25", got)
	}
	if got := r.agreement(12); got != 0.75 {
		t.Errorf("agreement(12) = %v, want 0.75", got)
	}
}

func TestBatchCheckRejectsSwappedClasses(t *testing.T) {
	want := []int{3, 1, 2}
	if err := checkBatch([]int{3, 1, 2}, want, 64); err != nil {
		t.Fatalf("matching batch rejected: %v", err)
	}
	if err := checkBatch([]int{1, 3, 2}, want, 64); err == nil {
		t.Error("swapped classes accepted")
	}
	if err := checkBatch([]int{3, 1}, want, 64); err == nil {
		t.Error("short batch accepted")
	}
}

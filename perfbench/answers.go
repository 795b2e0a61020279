package main

import "fmt"

// refs is the answer key for one image pool: the class the library's
// integer plan gives each pool image at every ladder rung, computed one
// image at a time through Family.Plan(b), and the class the float model
// from the same artifact gives it.
type refs struct {
	Classes map[int][]int `json:"classes"` // budget -> class per pool image
	Float   []int         `json:"float"`
}

// check accepts a served or batched answer only when it equals the
// library's class for that image at the budget the answer ran at.
func (r *refs) check(image, budget, class int) error {
	cls, ok := r.Classes[budget]
	if !ok {
		return fmt.Errorf("image %d: answer ran at budget %d, which has no reference", image, budget)
	}
	if image < 0 || image >= len(cls) {
		return fmt.Errorf("image %d outside the %d-image pool", image, len(cls))
	}
	if cls[image] != class {
		return fmt.Errorf("image %d at budget %d: answer class %d, library class %d", image, budget, class, cls[image])
	}
	return nil
}

// agreement is the share of pool images whose integer-plan class at
// the budget equals the float model's class.
func (r *refs) agreement(budget int) float64 {
	cls := r.Classes[budget]
	if len(cls) == 0 || len(cls) != len(r.Float) {
		return 0
	}
	same := 0
	for i, c := range cls {
		if c == r.Float[i] {
			same++
		}
	}
	return float64(same) / float64(len(cls))
}

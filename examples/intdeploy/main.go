// Integer-only deployment: trains VGG-style and ResNet-style CNNs, folds
// their batch norms, compiles them to integer inference plans (8-bit
// codes, 32-bit accumulators, static scales, scale-aligned residual
// skip-adds — the form the paper's hardware executes), applies Term
// Revealing to the deployed weights, and runs parallel batch inference
// with no floating point on the data path.
package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/datasets"
	"repro/internal/intinfer"
	"repro/internal/models"
	"repro/internal/qsim"
)

func main() {
	g := models.DefaultCNNGeom
	all := datasets.ImageClassesHard(800, g.Classes, g.InC, g.InH, g.InW, 0.25, 0.5, 17)
	train, test := all.Split(560)

	for _, arch := range []struct {
		name  string
		build func(models.CNNGeom, int64) *models.ImageModel
	}{
		{"VGG-style", models.NewVGGStyle},
		{"ResNet-style (residual skip-adds)", models.NewResNetStyle},
	} {
		fmt.Printf("training a %s CNN...\n", arch.name)
		m := arch.build(g, 18)
		cfg := models.DefaultTrain
		cfg.Epochs = 5
		models.Train(m, train, cfg)
		floatAcc := models.Evaluate(m, test, 32)
		fmt.Printf("float accuracy: %.4f\n", floatAcc)

		folded := qsim.FoldBatchNorm(m)
		fmt.Printf("folded %d batch norms into their convolutions\n", folded)

		for _, opt := range []struct {
			label string
			opts  intinfer.Options
		}{
			{"int8 (QT)", intinfer.Options{Calibration: train.Images[:64]}},
			{"int8 + TR(g=8,k=12)", intinfer.Options{Calibration: train.Images[:64],
				GroupSize: 8, GroupBudget: 12}},
			{"int8 + TR(g=8,k=8)", intinfer.Options{Calibration: train.Images[:64],
				GroupSize: 8, GroupBudget: 8}},
		} {
			plan, err := intinfer.Build(m, opt.opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "intdeploy:", err)
				os.Exit(1)
			}
			preds, err := plan.InferBatchContext(context.Background(), test.Images, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "intdeploy:", err)
				os.Exit(1)
			}
			correct := 0
			for i, p := range preds {
				if p == test.Labels[i] {
					correct++
				}
			}
			fmt.Printf("  %-22s accuracy %.4f (integer-only data path)\n",
				opt.label, float64(correct)/float64(len(preds)))
		}
		fmt.Println()
	}
	fmt.Println("\nTR quantizes the deployed integer weights further at load time;")
	fmt.Println("no retraining, no floating point between input and logits.")
}

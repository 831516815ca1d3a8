// Command hybridnet is the end-to-end CLI for the hybrid CNN: generate a
// synthetic dataset, train the classifier, assemble the hybrid network,
// classify images with qualification, export/import the platform-agnostic
// model description, and run fault-injection campaigns.
//
// Subcommands:
//
//	hybridnet train    -out model.json [-size 32] [-filters 16] [-perclass 20] [-epochs 10] [-subbatch 0] [-workers 1] [-seed 1]
//	hybridnet eval     -model model.json [-perclass 10] [-seed 2]
//	hybridnet qualify  -model model.json [-sign stop|yield|prohibition|parking|mandatory|warning] [-seed 3]
//	hybridnet campaign -model model.json [-rate 1e-4] [-trials 20] [-mode temporal-dmr|spatial-dmr|tmr|plain]
//	hybridnet render   -out dir [-size 96] [-perclass 2] [-seed 5]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/onnxlite"
	"repro/internal/train"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hybridnet:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: hybridnet <train|eval|qualify|campaign> [flags]")
	}
	var err error
	switch args[0] {
	case "train":
		err = cmdTrain(args[1:])
	case "eval":
		err = cmdEval(args[1:])
	case "qualify":
		err = cmdQualify(args[1:])
	case "campaign":
		err = cmdCampaign(args[1:])
	case "render":
		err = cmdRender(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
	if err == flag.ErrHelp {
		// -h/-help printed the subcommand usage; that is a success, not an
		// error (and the flagdoc generator depends on the zero exit).
		return nil
	}
	return err
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	out := fs.String("out", "model.json", "output model path")
	size := fs.Int("size", 32, "CNN input size")
	filters := fs.Int("filters", 16, "first-layer filter count")
	perClass := fs.Int("perclass", 20, "training examples per class")
	epochs := fs.Int("epochs", 10, "training epochs")
	subBatch := fs.Int("subbatch", 0, "samples per training batch (0 = whole worker shard, 1 = N=1 batches)")
	workers := fs.Int("workers", 1, "data-parallel trainer workers per mini-batch")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	cfg := nn.DefaultMicroConfig()
	cfg.InputSize = *size
	cfg.Conv1Filters = *filters
	net, err := nn.NewMicroAlexNet(cfg, rng)
	if err != nil {
		return err
	}
	conv1, err := nn.FirstConv(net)
	if err != nil {
		return err
	}
	// Pre-initialise the Sobel pair (Section III-B) and keep it pinned.
	pair, err := core.InstallSobelPair(conv1, 0, 1)
	if err != nil {
		return err
	}
	freeze, err := train.NewFilterFreeze(conv1, train.FreezeHard, pair.XIdx, pair.YIdx)
	if err != nil {
		return err
	}
	ds, err := gtsrb.Generate(gtsrb.Config{Size: *size, PerClass: *perClass}, rand.New(rand.NewSource(*seed+1)))
	if err != nil {
		return err
	}
	opt, err := train.NewSGD(0.03, 0.9, 1e-4)
	if err != nil {
		return err
	}
	tr := &train.Trainer{
		Net: net, Opt: opt, BatchSize: 8, Epochs: *epochs,
		SubBatch: *subBatch, Workers: *workers,
		Freezes: []*train.FilterFreeze{freeze}, Rng: rng,
		OnEpoch: func(epoch int, loss float64) error {
			fmt.Printf("epoch %2d  loss %.4f\n", epoch, loss)
			return nil
		},
	}
	if _, err := tr.Fit(ds); err != nil {
		return err
	}
	acc, err := train.Accuracy(net, ds)
	if err != nil {
		return err
	}
	fmt.Printf("training accuracy: %.4f\n", acc)

	hybridCfg := cli.StandardHybridConfig(pair)
	model, err := onnxlite.Export(net, &hybridCfg)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := onnxlite.Write(model, f); err != nil {
		return err
	}
	fmt.Printf("wrote hybrid model to %s\n", *out)
	return nil
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	modelPath := fs.String("model", "model.json", "model path")
	perClass := fs.Int("perclass", 10, "test examples per class")
	seed := fs.Int64("seed", 2, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, net, err := cli.LoadHybrid(*modelPath, *seed)
	if err != nil {
		return err
	}
	// The model document does not carry the training input size; the CLI
	// convention is the default 32×32.
	ds, err := gtsrb.Generate(gtsrb.Config{Size: 32, PerClass: *perClass}, rand.New(rand.NewSource(*seed+1)))
	if err != nil {
		return err
	}
	cm, err := train.Evaluate(net, ds)
	if err != nil {
		return err
	}
	fmt.Print(cm.String())
	return nil
}

func cmdQualify(args []string) error {
	fs := flag.NewFlagSet("qualify", flag.ContinueOnError)
	modelPath := fs.String("model", "model.json", "model path")
	sign := fs.String("sign", "stop", "sign class to render and classify")
	seed := fs.Int64("seed", 3, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	h, _, err := cli.LoadHybrid(*modelPath, *seed)
	if err != nil {
		return err
	}
	var spec gtsrb.ClassSpec
	found := false
	for _, c := range gtsrb.StandardClasses() {
		if c.Name == *sign {
			spec, found = c, true
			break
		}
	}
	if !found {
		return fmt.Errorf("unknown sign %q", *sign)
	}
	rng := rand.New(rand.NewSource(*seed))
	cfg, err := gtsrb.Config{Size: 32}.Normalize()
	if err != nil {
		return err
	}
	img, err := gtsrb.Render(gtsrb.RandomParams(cfg, spec, rng), rng)
	if err != nil {
		return err
	}
	res, err := h.Classify(img)
	if err != nil {
		return err
	}
	classes := gtsrb.StandardClasses()
	fmt.Printf("rendered:   %s\n", spec.Name)
	fmt.Printf("CNN class:  %s (confidence %.3f)\n", classes[res.Class].Name, res.Confidence)
	fmt.Printf("qualifier:  %v (peaks %d, SAX %s)\n", res.Qualifier.Class, res.Qualifier.Peaks, res.Qualifier.Word)
	fmt.Printf("decision:   %v\n", res.Decision)
	fmt.Printf("reliable ops: %d (retries %d)\n", res.Stats.Ops, res.Stats.Retries)
	return nil
}

func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	modelPath := fs.String("model", "model.json", "model path")
	rate := fs.Float64("rate", 1e-4, "transient fault rate per operation")
	trials := fs.Int("trials", 20, "injection trials")
	modeName := fs.String("mode", "temporal-dmr", "redundancy mode")
	seed := fs.Int64("seed", 4, "random seed")
	workers := fs.Int("workers", 0, "parallel trial workers (0 = all cores)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	modes := map[string]core.RedundancyMode{
		"plain": core.ModePlain, "temporal-dmr": core.ModeTemporalDMR,
		"spatial-dmr": core.ModeSpatialDMR, "tmr": core.ModeTMR,
	}
	mode, ok := modes[*modeName]
	if !ok {
		return fmt.Errorf("unknown mode %q", *modeName)
	}
	_, net, err := cli.LoadHybrid(*modelPath, *seed)
	if err != nil {
		return err
	}
	cfg := cli.StandardHybridConfig(core.SobelPair{XIdx: 0, YIdx: 1})
	cfg.Mode = mode
	// Trials run across the worker pool; all randomness (ALU seeds, the
	// rendered sign) derives from the trial index so the tally is
	// independent of scheduling. The outcome mapping mirrors the serial
	// CLI of earlier revisions: a bucket trip is a detected unrecoverable
	// error, retries mean the fault was corrected, otherwise masked.
	trial := func(i int) (correct, signalled bool, err error) {
		cfgTrial := cfg
		aluSeed := *seed + int64(i)*1_000_000
		cfgTrial.ALUs = func() fault.ALU {
			aluSeed++
			alu, err := fault.NewTransient(*rate, fault.BitFlip{Bit: -1},
				rand.New(rand.NewSource(aluSeed)))
			if err != nil {
				panic(err) // unreachable: parameters validated above
			}
			return alu
		}
		h, err := core.NewHybridNetwork(cfgTrial, net)
		if err != nil {
			return false, false, err
		}
		img, err := gtsrb.AngledStopSign(32, rand.New(rand.NewSource(*seed+int64(i)+100)))
		if err != nil {
			return false, false, err
		}
		res, err := h.Classify(img)
		if err != nil {
			return false, false, err
		}
		switch {
		case res.Decision == core.DecisionExecutionFailed:
			return false, true, nil // detected
		case res.Stats.Retries > 0:
			return true, true, nil // corrected
		default:
			return true, false, nil // masked
		}
	}
	tally, err := fault.RunCampaignParallel(*trials, *workers, trial)
	if err != nil {
		return err
	}
	fmt.Printf("campaign (%s, rate %.1e): %s\n", *modeName, *rate, tally.String())
	return nil
}

func cmdRender(args []string) error {
	fs := flag.NewFlagSet("render", flag.ContinueOnError)
	out := fs.String("out", "signs", "output directory for PNGs")
	size := fs.Int("size", 96, "image size")
	perClass := fs.Int("perclass", 2, "images per class")
	seed := fs.Int64("seed", 5, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	cfg, err := gtsrb.Config{Size: *size}.Normalize()
	if err != nil {
		return err
	}
	n := 0
	for _, spec := range gtsrb.StandardClasses() {
		for i := 0; i < *perClass; i++ {
			img, err := gtsrb.Render(gtsrb.RandomParams(cfg, spec, rng), rng)
			if err != nil {
				return err
			}
			path := fmt.Sprintf("%s/%s_%02d.png", *out, spec.Name, i)
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := gtsrb.WritePNG(img, f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			n++
		}
	}
	fmt.Printf("wrote %d PNGs to %s/\n", n, *out)
	return nil
}

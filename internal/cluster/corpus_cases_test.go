package cluster

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
)

// The hand-written equivalence, recovery, budget, crash-and-resume,
// compaction, flap and transformer matrices this package once spelled out
// are FuzzClusterRun draws now. Each of their cases names the committed
// corpus seed that reproduces it, and the case's subtest checks that the
// seed still draws the case — so a change to drawRun that moves a seed off
// its case fails by name — and then plays the draw, so
// `go test -run TestRecoveryBitEquivalence` still runs recoveries.

// corpusCase is one case of a replaced suite: the corpus file whose draw
// reproduces it and the traits (see traits) that draw must have.
type corpusCase struct {
	name, file, want string
}

// passed holds the seeds a case played and passed in this process, each
// with the case's name: FuzzClusterRun's replay of the committed corpus
// does not play them a second time.
var passed sync.Map

// checkCorpusCases plays the cases corpusCases lists under t's name, one
// subtest each, named for the case or else for its corpus file; a corpus
// file two of them share plays once.
func checkCorpusCases(t *testing.T) {
	cases, ok := corpusCases[t.Name()]
	if !ok {
		t.Fatalf("corpusCases lists no case of %s", t.Name())
	}
	played := map[string]string{}
	for _, c := range cases {
		t.Run(cmp.Or(c.name, c.file), func(t *testing.T) {
			seed, err := corpusSeed(c.file)
			if err != nil {
				t.Fatal(err)
			}
			d := drawRun(seed)
			have := d.traits()
			for _, want := range strings.Fields(c.want) {
				if !have[want] {
					t.Fatalf("corpus file %s no longer draws %q (lacks %q):\n%s", c.file, c.want, want, d)
				}
			}
			if name, ok := played[c.file]; ok {
				t.Logf("played as %s", name)
				return
			}
			played[c.file] = t.Name()
			// Registered first, so it runs after the draw's own cleanups.
			t.Cleanup(func() {
				if !t.Failed() {
					passed.Store(seed, t.Name())
				}
			})
			d.play(t)
		})
	}
}

// corpusSeed reads the seed of a FuzzClusterRun corpus file.
func corpusSeed(file string) (uint64, error) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzClusterRun", file))
	var seed uint64
	if err == nil {
		_, err = fmt.Sscanf(string(raw), "go test fuzz v1\nuint64(%v)\n", &seed)
	}
	return seed, err
}

// traits names what a draw is, in the words the case map uses.
func (d clusterDraw) traits() map[string]bool {
	groups, gen0 := d.plan.Groups, d.gens[0]
	head, tail := groups[0].Split(), groups[len(groups)-1].Split()
	split, split3 := false, false
	for _, grp := range groups {
		split, split3 = split || grp.Split() > 1, split3 || grp.Split() > 2
	}
	tr := map[string]bool{d.model: true, d.topology: true, "tcp": d.tcp, "loopback": !d.tcp, "dpu": d.dpu,
		"no-dpu": !d.dpu, "drift": d.drift, "split": split, "split3": split3, "clean": true,
		"ir": len(groups) == 1 && split, "tr": len(groups) > 1 && !split,
		"hybrid":     len(groups) > 1 && head > 1 && tail == 1,
		"split-tail": len(groups) > 1 && head == 1 && tail > 1,
		"recovers":   gen0.recoveries() > 0 && !gen0.crash, "exhausted": gen0.crash && !d.durable,
		"crash": gen0.crash && d.durable, "completed-resume": !gen0.crash && len(d.gens) > 1,
		"unsuperseded":   d.durable && len(gen0.faults) == gen0.count(transport.ActFlap, false),
		"interval>steps": d.interval > d.steps, fmt.Sprintf("interval=%d", d.interval): true,
		fmt.Sprintf("groups=%d", len(groups)): true, fmt.Sprintf("workers=%d", d.workers): true,
		fmt.Sprintf("budget=%d", gen0.budget): true}
	at := func(step int32) string {
		return cmp.Or(map[int32]string{0: "first", int32(d.steps - 1): "last"}[step], "mid")
	}
	kinds := map[wire.Kind]string{wire.KindLosses: "losses", wire.KindRelay: "relay", wire.KindOutput: "output",
		wire.KindRingSegment: "segment", wire.KindStepGo: "stepgo"}
	for i, gen := range d.gens {
		for _, f := range gen.faults {
			tr["clean"] = false
			link := map[bool]string{false: "control", true: "peer"}[f.peer]
			switch {
			case i > 0 && f.Action == transport.ActKill:
				tr["resume-kill"] = tr["resume-kill"] || !gen.crash
			case i > 0 && f.Action == transport.ActFlap:
				tr["resume-flap"], tr["resume-"+link+"-flap"] = true, true
			case f.Action == transport.ActKill:
				tr[link+"-kill"], tr[kinds[f.Kind]+"-kill"], tr[kinds[f.Kind]+"-kill@"+at(f.Step)] = true, true, true
				if !f.peer {
					slot := f.Conn % d.sessions()
					tr["tail-worker-kill"] = tr["tail-worker-kill"] || d.tailOnly(slot)
					devs := d.placement()[slot]
					for j := 1; j < len(devs); j++ {
						tr["split-worker-kill"] = tr["split-worker-kill"] || d.plan.GroupOf(devs[j]) == d.plan.GroupOf(devs[j-1])
					}
				}
			case f.Action == transport.ActFlap:
				tr[link+"-flap"], tr[kinds[f.Kind]+"-flap"], tr[kinds[f.Kind]+"-flap@"+at(f.Step)] = true, true, true
			case f.Action == transport.ActTruncate:
				tr["truncate"] = true
			}
		}
		tr["compact"] = tr["compact"] || gen.compact
		tr["double-crash"] = tr["double-crash"] || i > 0 && gen.crash
	}
	if tr["crash"] {
		tr["crash@"+at(gen0.faults[len(gen0.faults)-1].Step)] = true
	}
	return tr
}

// The replaced suites, by name.

func TestClusterBitEquivalenceLoopbackAndTCP(t *testing.T) { checkCorpusCases(t) }
func TestClusterMatchesPipelinedAcrossPlans(t *testing.T)  { checkCorpusCases(t) }
func TestClusterTransformerSpec(t *testing.T)              { checkCorpusCases(t) }
func TestCompactedLedgerResume(t *testing.T)               { checkCorpusCases(t) }
func TestCoordinatorKillResume(t *testing.T)               { checkCorpusCases(t) }
func TestCoordinatorKillResumeDedup(t *testing.T)          { checkCorpusCases(t) }
func TestDoubleCrashResume(t *testing.T)                   { checkCorpusCases(t) }
func TestPeerDeathMidGatherFailsCleanly(t *testing.T)      { checkCorpusCases(t) }
func TestRecoveryBitEquivalence(t *testing.T)              { checkCorpusCases(t) }
func TestRecoveryBudgetExhausted(t *testing.T)             { checkCorpusCases(t) }
func TestRecoveryKillSplitGroupWorker(t *testing.T)        { checkCorpusCases(t) }
func TestRecoveryTruncatedFrame(t *testing.T)              { checkCorpusCases(t) }
func TestResumeOfCompletedRun(t *testing.T)                { checkCorpusCases(t) }
func TestResumedRunSurvivesWorkerLoss(t *testing.T)        { checkCorpusCases(t) }
func TestRingBitEquivalenceTCP(t *testing.T)               { checkCorpusCases(t) }
func TestRingCoordinatorKillResume(t *testing.T)           { checkCorpusCases(t) }
func TestRingDataRecipe(t *testing.T)                      { checkCorpusCases(t) }
func TestRingDoubleCrashResume(t *testing.T)               { checkCorpusCases(t) }
func TestRingFlapAbsorbedBitEquivalence(t *testing.T)      { checkCorpusCases(t) }
func TestRingFlapTransformerAbsorbed(t *testing.T)         { checkCorpusCases(t) }
func TestRingMatchesPipelinedAcrossPlans(t *testing.T)     { checkCorpusCases(t) }
func TestRingRecoveryBitEquivalence(t *testing.T)          { checkCorpusCases(t) }
func TestRingRecoveryBudgetExhausted(t *testing.T)         { checkCorpusCases(t) }
func TestRingResumeKeepsRetryBudget(t *testing.T)          { checkCorpusCases(t) }
func TestRingResumeOfCompletedRun(t *testing.T)            { checkCorpusCases(t) }
func TestRingTransformerDataRecipe(t *testing.T)           { checkCorpusCases(t) }
func TestClusterSnapshotOverridesDrift(t *testing.T)       { checkCorpusCases(t) }

// corpusCases lists, by suite, the cases FuzzClusterRun's corpus
// reproduces.
var corpusCases = map[string][]corpusCase{
	"TestClusterBitEquivalenceLoopbackAndTCP": {
		{"loopback", "hub-loopback-clean-22319", "hub loopback dpu hybrid workers=2 clean"},
		{"tcp", "hub-tcp-clean-927b5", "hub tcp dpu hybrid workers=2 clean"},
	},
	"TestClusterMatchesPipelinedAcrossPlans": {
		{"tr-2dev/dpu=false/workers=1", "hub-loopback-clean-10f04", "hub loopback clean tr groups=2 no-dpu workers=1"},
		{"tr-2dev/dpu=false/workers=2", "hub-loopback-clean-58e52", "hub loopback clean tr groups=2 no-dpu workers=2"},
		{"tr-2dev/dpu=true/workers=1", "hub-loopback-clean-b658", "hub loopback clean tr groups=2 dpu workers=1"},
		{"tr-2dev/dpu=true/workers=2", "hub-loopback-clean-f3ee7", "hub loopback clean tr groups=2 dpu workers=2"},
		{"tr-4dev/dpu=false/workers=1", "hub-loopback-clean-126314", "hub loopback clean tr groups=4 no-dpu workers=1"},
		{"tr-4dev/dpu=false/workers=2", "hub-loopback-clean-169cc8", "hub loopback clean tr groups=4 no-dpu workers=2"},
		{"tr-4dev/dpu=true/workers=1", "hub-loopback-clean-2bdf72", "hub loopback clean tr groups=4 dpu workers=1"},
		{"tr-4dev/dpu=true/workers=2", "hub-loopback-clean-1b4f6c", "hub loopback clean tr groups=4 dpu workers=2"},
		{"hybrid/dpu=false/workers=1", "hub-loopback-clean-1a0f8f", "hub loopback clean hybrid no-dpu workers=1"},
		{"hybrid/dpu=false/workers=2", "hub-loopback-clean-5f4f0", "hub loopback clean hybrid no-dpu workers=2"},
		{"hybrid/dpu=true/workers=1", "hub-loopback-clean-d317b", "hub loopback clean hybrid dpu workers=1"},
		{"hybrid/dpu=true/workers=2", "hub-loopback-clean-22319", "hub loopback clean hybrid dpu workers=2"},
		{"ir-2dev/dpu=false/workers=1", "hub-loopback-clean-1eb16e", "hub loopback clean ir no-dpu workers=1"},
		{"ir-2dev/dpu=false/workers=2", "hub-loopback-clean-2532c0", "hub loopback clean ir no-dpu workers=2"},
		{"ir-2dev/dpu=true/workers=1", "hub-loopback-clean-1a3d30", "hub loopback clean ir dpu workers=1"},
		{"ir-2dev/dpu=true/workers=2", "hub-loopback-clean-2e34e", "hub loopback clean ir dpu workers=2"},
		{"tail-dp/dpu=false/workers=1", "hub-loopback-clean-ee35a", "hub loopback clean split-tail groups=2 no-dpu workers=1"},
		{"tail-dp/dpu=false/workers=2", "hub-loopback-clean-68d5", "hub loopback clean split-tail groups=2 no-dpu workers=2"},
		{"tail-dp/dpu=true/workers=1", "hub-loopback-clean-d574d", "hub loopback clean split-tail groups=2 dpu workers=1"},
		{"tail-dp/dpu=true/workers=2", "hub-loopback-clean-29479", "hub loopback clean split-tail groups=2 dpu workers=2"},
	},
	"TestClusterTransformerSpec": {
		{"hub", "hub-loopback-xfmr-clean-6ca77", "transformer hub dpu hybrid workers=2 clean"},
		{"tcp-ring", "ring-tcp-xfmr-clean-2c8f", "transformer ring tcp dpu hybrid workers=3 clean"},
	},
	"TestCompactedLedgerResume": {
		{"hub/crash-false", "hub-loopback-completed-resume-923c2", "hub completed-resume compact"},
		{"hub/crash-true", "hub-loopback-crash-312bc", "hub crash compact"},
		{"ring/crash-false", "ring-loopback-completed-resume-b5b21", "ring completed-resume compact"},
		{"ring/crash-true", "ring-loopback-crash-23c45b", "ring crash compact"},
	},
	"TestCoordinatorKillResume": {
		{"loopback/interval-1/kill-step-0", "hub-loopback-crash-312bc", "hub dpu crash budget=0 loopback interval=1 tail-worker-kill crash@first"},
		{"loopback/interval-1/kill-step-2", "hub-loopback-crash-10c725", "hub dpu crash budget=0 loopback interval=1 tail-worker-kill crash@mid"},
		{"loopback/interval-1/kill-step-4", "hub-loopback-crash-2a7ba3", "hub dpu crash budget=0 loopback interval=1 tail-worker-kill crash@last"},
		{"loopback/interval-3/kill-step-0", "hub-loopback-double-crash-20860", "hub dpu crash budget=0 loopback interval=3 crash@first"},
		{"loopback/interval-3/kill-step-2", "hub-loopback-crash-43ae7", "hub dpu crash budget=0 loopback interval=3 crash@mid"},
		{"loopback/interval-3/kill-step-4", "hub-loopback-crash-2b2314", "hub dpu crash budget=0 loopback interval=3 crash@last"},
		{"tcp/interval-1/kill-step-0", "hub-tcp-crash-25efad", "hub dpu crash budget=0 tcp interval=1 tail-worker-kill crash@first"},
		{"tcp/interval-1/kill-step-2", "hub-tcp-crash-20bef8", "hub dpu crash budget=0 tcp interval=1 tail-worker-kill crash@mid"},
		{"tcp/interval-1/kill-step-4", "hub-tcp-crash-27431a", "hub dpu crash budget=0 tcp interval=1 tail-worker-kill crash@last"},
		{"tcp/interval-3/kill-step-0", "hub-tcp-crash-a138", "hub dpu crash budget=0 tcp interval=3 crash@first"},
		{"tcp/interval-3/kill-step-2", "hub-tcp-crash-3d03c", "hub dpu crash budget=0 tcp interval=3 crash@mid"},
		{"tcp/interval-3/kill-step-4", "hub-tcp-crash-2214d2", "hub dpu crash budget=0 tcp interval=3 crash@last"},
	},
	"TestCoordinatorKillResumeDedup": {
		{"dpu=false/interval-1/kill-conn-0", "hub-loopback-crash-1f511", "hub crash hybrid no-dpu interval=1 split-worker-kill"},
		{"dpu=false/interval-1/kill-conn-1", "hub-loopback-crash-1f511", "hub crash hybrid no-dpu interval=1 tail-worker-kill"},
		{"dpu=false/interval-2/kill-conn-0", "hub-loopback-crash-28eb89", "hub crash hybrid no-dpu interval=2 split-worker-kill"},
		{"dpu=false/interval-2/kill-conn-1", "hub-loopback-crash-28eb89", "hub crash hybrid no-dpu interval=2 tail-worker-kill"},
		{"dpu=true/interval-1/kill-conn-0", "hub-loopback-crash-2c99c1", "hub crash hybrid dpu interval=1 split-worker-kill"},
		{"dpu=true/interval-1/kill-conn-1", "hub-loopback-crash-10c725", "hub crash hybrid dpu interval=1 tail-worker-kill"},
		{"dpu=true/interval-2/kill-conn-0", "hub-loopback-crash-7f69f", "hub crash hybrid dpu interval=2 split-worker-kill"},
		{"dpu=true/interval-2/kill-conn-1", "hub-loopback-crash-7f69f", "hub crash hybrid dpu interval=2 tail-worker-kill"},
	},
	"TestDoubleCrashResume":              {{"", "hub-loopback-double-crash-20860", "hub double-crash"}},
	"TestPeerDeathMidGatherFailsCleanly": {{"", "hub-loopback-exhausted-b1575", "hub exhausted budget=0 relay-kill split"}},
	"TestRecoveryBitEquivalence": {
		{"loopback/dpu=false/kill-step-0", "hub-loopback-kill-57d64", "hub recovers split control-kill loopback no-dpu losses-kill@first"},
		{"loopback/dpu=false/kill-step-2", "hub-loopback-kill-2b8dc0", "hub recovers split control-kill loopback no-dpu losses-kill@mid"},
		{"loopback/dpu=false/kill-step-4", "hub-loopback-kill-ef398", "hub recovers split control-kill loopback no-dpu losses-kill@last"},
		{"loopback/dpu=true/kill-step-0", "hub-loopback-kill-3602d", "hub recovers split control-kill loopback dpu losses-kill@first"},
		{"loopback/dpu=true/kill-step-2", "hub-loopback-kill-2d467d", "hub recovers split control-kill loopback dpu losses-kill@mid"},
		{"loopback/dpu=true/kill-step-4", "hub-loopback-kill-33c14", "hub recovers split control-kill loopback dpu losses-kill@last"},
		{"tcp/dpu=false/kill-step-0", "hub-tcp-kill-17010f", "hub recovers split control-kill tcp no-dpu losses-kill@first"},
		{"tcp/dpu=false/kill-step-2", "hub-tcp-kill-b45f9", "hub recovers split control-kill tcp no-dpu losses-kill@mid"},
		{"tcp/dpu=false/kill-step-4", "hub-tcp-kill-11e48f", "hub recovers split control-kill tcp no-dpu losses-kill@last"},
		{"tcp/dpu=true/kill-step-0", "hub-tcp-kill-fe4e2", "hub recovers split control-kill tcp dpu losses-kill@first"},
		{"tcp/dpu=true/kill-step-2", "hub-tcp-kill-5a173", "hub recovers split control-kill tcp dpu losses-kill@mid"},
		{"tcp/dpu=true/kill-step-4", "hub-tcp-kill-a00b0", "hub recovers split control-kill tcp dpu losses-kill@last"},
	},
	"TestRecoveryBudgetExhausted":      {{"", "hub-loopback-exhausted-9470b", "hub exhausted budget=1"}},
	"TestRecoveryKillSplitGroupWorker": {{"", "hub-loopback-kill-33c14", "hub split-worker-kill recovers"}},
	"TestRecoveryTruncatedFrame":       {{"", "hub-loopback-truncate-c19", "hub truncate"}},
	"TestResumeOfCompletedRun":         {{"", "hub-loopback-completed-resume-923c2", "hub completed-resume"}},
	"TestResumedRunSurvivesWorkerLoss": {{"", "hub-loopback-crash-312bc", "crash resume-kill"}},
	"TestRingBitEquivalenceTCP":        {{"", "ring-tcp-xfmr-clean-2c8f", "ring tcp dpu hybrid workers=3 clean"}},
	"TestRingCoordinatorKillResume": {
		{"interval-1/kill-step-0", "ring-loopback-crash-23c45b", "ring crash interval=1 dpu crash@first"},
		{"interval-1/kill-step-2", "ring-loopback-crash-1188b", "ring crash interval=1 dpu crash@mid"},
		{"interval-1/kill-step-4", "ring-loopback-crash-195fe5", "ring crash interval=1 dpu crash@last"},
		{"interval-2/kill-step-0", "ring-loopback-crash-d43e3", "ring crash interval=2 no-dpu crash@first"},
		{"interval-2/kill-step-2", "ring-loopback-crash-178828", "ring crash interval=2 no-dpu crash@mid"},
		{"interval-2/kill-step-4", "ring-loopback-crash-2cc37", "ring crash interval=2 no-dpu crash@last"},
	},
	"TestRingDataRecipe":        {{"", "ring-loopback-clean-cb1b5", "ring dpu hybrid workers=3 clean"}},
	"TestRingDoubleCrashResume": {{"", "ring-loopback-double-crash-d5a5d", "ring double-crash"}},
	"TestRingFlapAbsorbedBitEquivalence": {
		{"loopback/activations/flap-step-0", "ring-loopback-flap-2c6a1e", "ring peer-flap dpu loopback output-flap@first"},
		{"loopback/activations/flap-step-2", "ring-loopback-flap-176863", "ring peer-flap dpu loopback output-flap@mid"},
		{"loopback/activations/flap-step-4", "ring-loopback-flap-174e17", "ring peer-flap dpu loopback output-flap@last"},
		{"loopback/all-reduce/flap-step-0", "ring-loopback-flap-190ac1", "ring peer-flap no-dpu loopback segment-flap@first"},
		{"loopback/all-reduce/flap-step-2", "ring-loopback-flap-2db932", "ring peer-flap no-dpu loopback segment-flap@mid"},
		{"loopback/all-reduce/flap-step-4", "ring-loopback-flap-1af3b7", "ring peer-flap no-dpu loopback segment-flap@last"},
		{"loopback/control/flap-step-0", "ring-loopback-flap-1cd764", "ring control-flap no-dpu loopback losses-flap@first"},
		{"loopback/control/flap-step-2", "ring-loopback-flap-289397", "ring control-flap no-dpu loopback losses-flap@mid"},
		{"loopback/control/flap-step-4", "ring-loopback-flap-72316", "ring control-flap no-dpu loopback losses-flap@last"},
		{"loopback/hub-control-dpu/flap-step-0", "hub-loopback-flap-21bd97", "hub control-flap dpu loopback losses-flap@first"},
		{"loopback/hub-control-dpu/flap-step-2", "hub-loopback-flap-fc528", "hub control-flap dpu loopback losses-flap@mid"},
		{"loopback/hub-control-dpu/flap-step-4", "hub-loopback-flap-1be1eb", "hub control-flap dpu loopback losses-flap@last"},
		{"loopback/hub-control/flap-step-0", "hub-loopback-flap-21dba", "hub control-flap no-dpu loopback stepgo-flap@first"},
		{"loopback/hub-control/flap-step-2", "hub-loopback-flap-edd64", "hub control-flap no-dpu loopback stepgo-flap@mid"},
		{"loopback/hub-control/flap-step-4", "hub-loopback-flap-2b7f4e", "hub control-flap no-dpu loopback stepgo-flap@last"},
		{"tcp/activations/flap-step-0", "ring-tcp-flap-af183", "ring peer-flap dpu tcp output-flap@first"},
		{"tcp/activations/flap-step-2", "ring-tcp-flap-af183", "ring peer-flap dpu tcp output-flap@mid"},
		{"tcp/activations/flap-step-4", "ring-tcp-flap-133e73", "ring peer-flap dpu tcp output-flap@last"},
		{"tcp/all-reduce/flap-step-0", "ring-tcp-flap-1caa96", "ring peer-flap no-dpu tcp segment-flap@first"},
		{"tcp/all-reduce/flap-step-2", "ring-tcp-flap-ca2f", "ring peer-flap no-dpu tcp segment-flap@mid"},
		{"tcp/all-reduce/flap-step-4", "ring-tcp-flap-ca2f", "ring peer-flap no-dpu tcp segment-flap@last"},
		{"tcp/control/flap-step-0", "ring-tcp-flap-2d11b0", "ring control-flap no-dpu tcp losses-flap@first"},
		{"tcp/control/flap-step-2", "ring-tcp-flap-9b551", "ring control-flap no-dpu tcp losses-flap@mid"},
		{"tcp/control/flap-step-4", "ring-tcp-flap-2d11b0", "ring control-flap no-dpu tcp losses-flap@last"},
		{"tcp/hub-control-dpu/flap-step-0", "hub-tcp-flap-8a6f4", "hub control-flap dpu tcp losses-flap@first"},
		{"tcp/hub-control-dpu/flap-step-2", "hub-tcp-flap-1ed28f", "hub control-flap dpu tcp losses-flap@mid"},
		{"tcp/hub-control-dpu/flap-step-4", "hub-tcp-flap-22c1aa", "hub control-flap dpu tcp losses-flap@last"},
		{"tcp/hub-control/flap-step-0", "hub-tcp-flap-c8465", "hub control-flap no-dpu tcp stepgo-flap@first"},
		{"tcp/hub-control/flap-step-2", "hub-tcp-flap-21f333", "hub control-flap no-dpu tcp stepgo-flap@mid"},
		{"tcp/hub-control/flap-step-4", "hub-tcp-flap-c8465", "hub control-flap no-dpu tcp stepgo-flap@last"},
	},
	"TestRingFlapTransformerAbsorbed": {{"", "ring-loopback-xfmr-flap-6def6", "transformer ring output-flap segment-flap"}},
	"TestRingMatchesPipelinedAcrossPlans": {
		{"tr-2dev/dpu=false/workers=1", "ring-loopback-clean-8fc9a", "ring loopback clean tr groups=2 no-dpu workers=1"},
		{"tr-2dev/dpu=false/workers=2", "ring-loopback-clean-6f4c7", "ring loopback clean tr groups=2 no-dpu workers=2"},
		{"tr-2dev/dpu=false/workers=3", "ring-loopback-clean-d39db", "ring loopback clean tr groups=2 no-dpu workers=3"},
		{"tr-2dev/dpu=true/workers=1", "ring-loopback-clean-8bbe2", "ring loopback clean tr groups=2 dpu workers=1"},
		{"tr-2dev/dpu=true/workers=2", "ring-loopback-clean-5bcb7", "ring loopback clean tr groups=2 dpu workers=2"},
		{"tr-2dev/dpu=true/workers=3", "ring-loopback-clean-6affe", "ring loopback clean tr groups=2 dpu workers=3"},
		{"hybrid/dpu=false/workers=1", "ring-loopback-clean-4a5ef", "ring loopback clean hybrid no-dpu workers=1"},
		{"hybrid/dpu=false/workers=2", "ring-loopback-clean-3d305", "ring loopback clean hybrid no-dpu workers=2"},
		{"hybrid/dpu=false/workers=3", "ring-loopback-clean-e0198", "ring loopback clean hybrid no-dpu workers=3"},
		{"hybrid/dpu=true/workers=1", "ring-loopback-clean-9cdd8", "ring loopback clean hybrid dpu workers=1"},
		{"hybrid/dpu=true/workers=2", "ring-loopback-clean-6a96b", "ring loopback clean hybrid dpu workers=2"},
		{"hybrid/dpu=true/workers=3", "ring-loopback-clean-cb1b5", "ring loopback clean hybrid dpu workers=3"},
		{"tail-dp/dpu=false/workers=1", "ring-loopback-clean-1045", "ring loopback clean split-tail groups=2 no-dpu workers=1"},
		{"tail-dp/dpu=false/workers=2", "ring-loopback-clean-134c13", "ring loopback clean split-tail groups=2 no-dpu workers=2"},
		{"tail-dp/dpu=false/workers=3", "ring-loopback-clean-7fa27", "ring loopback clean split-tail groups=2 no-dpu workers=3"},
		{"tail-dp/dpu=true/workers=1", "ring-loopback-clean-5d542", "ring loopback clean split-tail groups=2 dpu workers=1"},
		{"tail-dp/dpu=true/workers=2", "ring-loopback-clean-f14b1", "ring loopback clean split-tail groups=2 dpu workers=2"},
		{"tail-dp/dpu=true/workers=3", "ring-loopback-clean-518c5", "ring loopback clean split-tail groups=2 dpu workers=3"},
		{"dp3/dpu=false/workers=1", "ring-loopback-clean-4a5ef", "ring loopback clean hybrid split3 no-dpu workers=1"},
		{"dp3/dpu=false/workers=2", "ring-loopback-clean-3d305", "ring loopback clean hybrid split3 no-dpu workers=2"},
		{"dp3/dpu=false/workers=3", "ring-loopback-clean-e0198", "ring loopback clean hybrid split3 no-dpu workers=3"},
		{"dp3/dpu=true/workers=1", "ring-loopback-clean-9cdd8", "ring loopback clean hybrid split3 dpu workers=1"},
		{"dp3/dpu=true/workers=2", "ring-loopback-clean-6a96b", "ring loopback clean hybrid split3 dpu workers=2"},
		{"dp3/dpu=true/workers=3", "ring-loopback-clean-cb1b5", "ring loopback clean hybrid split3 dpu workers=3"},
	},
	"TestRingRecoveryBitEquivalence": {
		{"loopback/activations/kill-step-0", "ring-loopback-kill-1260ea", "ring recovers split peer-kill loopback dpu output-kill@first"},
		{"loopback/activations/kill-step-2", "ring-loopback-kill-16da4b", "ring recovers split peer-kill loopback dpu output-kill@mid"},
		{"loopback/activations/kill-step-4", "ring-loopback-kill-7cc6", "ring recovers split peer-kill loopback dpu output-kill@last"},
		{"loopback/all-reduce/kill-step-0", "ring-loopback-kill-5c865", "ring recovers split peer-kill loopback no-dpu segment-kill@first"},
		{"loopback/all-reduce/kill-step-2", "ring-loopback-kill-379c5", "ring recovers split peer-kill loopback no-dpu segment-kill@mid"},
		{"loopback/all-reduce/kill-step-4", "ring-loopback-kill-d34a9", "ring recovers split peer-kill loopback no-dpu segment-kill@last"},
		{"tcp/activations/kill-step-0", "ring-tcp-kill-28ead1", "ring recovers split peer-kill tcp dpu output-kill@first"},
		{"tcp/activations/kill-step-2", "ring-tcp-kill-202482", "ring recovers split peer-kill tcp dpu output-kill@mid"},
		{"tcp/activations/kill-step-4", "ring-tcp-kill-fa552", "ring recovers split peer-kill tcp dpu output-kill@last"},
		{"tcp/all-reduce/kill-step-0", "ring-tcp-kill-a3800", "ring recovers split peer-kill tcp no-dpu segment-kill@first"},
		{"tcp/all-reduce/kill-step-2", "ring-tcp-kill-a74fa", "ring recovers split peer-kill tcp no-dpu segment-kill@mid"},
		{"tcp/all-reduce/kill-step-4", "ring-tcp-kill-1660bf", "ring recovers split peer-kill tcp no-dpu segment-kill@last"},
	},
	"TestRingRecoveryBudgetExhausted": {{"", "ring-loopback-exhausted-31ae1", "ring exhausted budget=1"}},
	"TestRingResumeKeepsRetryBudget": {
		{"control", "ring-loopback-completed-resume-1d3c9a", "ring completed-resume resume-control-flap"},
		{"peer", "ring-loopback-completed-resume-81b1", "ring completed-resume resume-peer-flap"},
	},
	"TestRingResumeOfCompletedRun":  {{"", "ring-loopback-completed-resume-b5b21", "ring completed-resume"}},
	"TestRingTransformerDataRecipe": {{"", "ring-loopback-xfmr-clean-fb274", "transformer ring loopback dpu hybrid workers=3 clean"}},
	"TestSnapshotPolicyEdgeCases": {
		{"interval-longer-than-run", "ring-loopback-double-crash-d5a5d", "crash interval>steps"},
		{"dedup-ships-one-snapshot-per-group", "hub-loopback-clean-22319", "unsuperseded split interval=2"},
	},
	// The workers train from the coordinator's drifted seed weights, not
	// the spec's initialization; so does a resume, from its manifest's.
	"TestClusterSnapshotOverridesDrift": {
		{"run", "hub-loopback-clean-22319", "drift clean"},
		{"resume", "hub-loopback-crash-10c725", "drift crash"},
	},
}

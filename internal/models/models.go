// Package models instantiates the generic framework of package core for the
// architectures studied in the paper: Sequential Consistency, TSO,
// C++ restricted to release-acquire atomics (Fig. 21), Power (Fig. 17, 18
// and 25) and the three ARM variants of Tab. VII.
package models

import (
	"herdcats/internal/core"
	"herdcats/internal/events"
	"herdcats/internal/exec"
	"herdcats/internal/rel"
)

// Model bundles an architecture with the axiom options it is checked under
// (e.g. "ARM llh" = proposed-ARM ppo + load-load hazards allowed).
type Model struct {
	Arch core.Architecture
	Opts core.Options
}

// Name returns the architecture's name.
func (m Model) Name() string { return m.Arch.Name() }

// Check validates a candidate execution against the model.
func (m Model) Check(x *events.Execution) core.Result {
	return core.CheckWith(m.Arch, x, m.Opts)
}

// PruneLevel declares the early SC-per-location pruning level sound for
// this model (sim.PruneCapable): core.CheckWith evaluates the SC PER
// LOCATION axiom for every architecture, so any candidate whose po-loc ∪
// com union is cyclic is rejected — the enumeration may skip it. Under
// AllowLoadLoadHazard the axiom exempts read-read program-order pairs, and
// so must the pruning.
func (m Model) PruneLevel() exec.Prune {
	if m.Opts.AllowLoadLoadHazard {
		return exec.PruneSCPerLocNoRR
	}
	return exec.PruneSCPerLoc
}

// The standard model zoo.
var (
	// SC is Lamport's Sequential Consistency (Fig. 21, Lemma 4.1).
	SC = Model{Arch: scArch{}}
	// TSO is Sparc/x86 Total Store Order (Fig. 21, Lemma 4.1).
	TSO = Model{Arch: tsoArch{}}
	// CppRA is C++ restricted to release-acquire atomics, with the paper's
	// PROPAGATION weakening to irreflexive(prop ; co) (Sec. 4.8).
	CppRA = Model{Arch: cppRAArch{}, Opts: core.Options{WeakPropagation: true}}
	// Power is the paper's Power model (Fig. 5 + 17 + 18 + 25).
	Power = Model{Arch: powerArch{}}
	// PowerARM instantiates the Power model with ARM fences (first column
	// of Tab. VII); it is invalidated by ARM hardware.
	PowerARM = Model{Arch: armArch{ppoVariant: ppoPower, name: "Power-ARM"}}
	// ARM is the paper's proposed ARM model (Tab. VII): cc0 loses po-loc
	// to admit the early-commit behaviours of Fig. 32/33.
	ARM = Model{Arch: armArch{ppoVariant: ppoARM, name: "ARM"}}
	// ARMllh is ARM plus load-load hazards allowed in SC PER LOCATION,
	// used to test hardware suffering from the acknowledged coRR bug.
	ARMllh = Model{
		Arch: armArch{ppoVariant: ppoARM, name: "ARM llh"},
		Opts: core.Options{AllowLoadLoadHazard: true},
	}
	// PowerStatic and ARMStatic drop the dynamic rdw and detour ingredients
	// from the preserved program order — the weaker, "more stand-alone" ppo
	// the paper weighs at the end of Sec. 8.2; the nodetour ablation
	// measures how few behaviours this actually frees.
	PowerStatic = Model{Arch: powerArch{static: true, name: "Power nodetour"}}
	ARMStatic   = Model{Arch: armArch{ppoVariant: ppoARM, name: "ARM nodetour", static: true}}
)

// All lists the model zoo in a stable order.
func All() []Model {
	return []Model{SC, TSO, CppRA, Power, PowerARM, ARM, ARMllh}
}

// ByName returns the model with the given name, or ok=false.
func ByName(name string) (Model, bool) {
	for _, m := range All() {
		if m.Name() == name {
			return m, true
		}
	}
	return Model{}, false
}

// ---------------------------------------------------------------------------
// SC (Fig. 21): ppo = po, fences = ∅, prop = ppo ∪ fences ∪ rf ∪ fr.

type scArch struct{}

func (scArch) Name() string { return "SC" }

func (scArch) PPO(x *events.Execution) rel.Rel { return x.PO.Restrict(x.M, x.M) }

func (scArch) Fences(x *events.Execution) rel.Rel { return rel.New(x.N()) }

func (scArch) Prop(x *events.Execution, ppo, _ rel.Rel) rel.Rel {
	return ppo.Union(x.MemRF()).Union(x.FR)
}

// ---------------------------------------------------------------------------
// TSO (Fig. 21): ppo = po \ WR, ffence = mfence,
// prop = ppo ∪ fences ∪ rfe ∪ fr.

type tsoArch struct{}

func (tsoArch) Name() string { return "TSO" }

func (tsoArch) PPO(x *events.Execution) rel.Rel {
	po := x.PO.Restrict(x.M, x.M)
	return po.Diff(po.Restrict(x.W, x.R))
}

func (tsoArch) Fences(x *events.Execution) rel.Rel { return x.Fences(events.FenceMFence) }

func (tsoArch) Prop(x *events.Execution, ppo, fences rel.Rel) rel.Rel {
	return ppo.Union(fences).Union(x.RFE).Union(x.FR)
}

// ---------------------------------------------------------------------------
// C++ R-A (Fig. 21): ppo = sb (program order), fences = ∅, prop = hb⁺ with
// hb = sb ∪ rf. Checked with the WeakPropagation option.

type cppRAArch struct{}

func (cppRAArch) Name() string { return "C++ R-A" }

func (cppRAArch) PPO(x *events.Execution) rel.Rel { return x.PO.Restrict(x.M, x.M) }

func (cppRAArch) Fences(x *events.Execution) rel.Rel { return rel.New(x.N()) }

func (cppRAArch) Prop(x *events.Execution, ppo, _ rel.Rel) rel.Rel {
	return ppo.Union(x.MemRF()).Plus()
}

// ---------------------------------------------------------------------------
// Power (Fig. 17 + 18 + 25) and ARM (Tab. VII).

type ppoVariant uint8

const (
	ppoPower ppoVariant = iota // cc0 = dp ∪ po-loc ∪ ctrl ∪ (addr;po)
	ppoARM                     // cc0 = dp ∪ ctrl ∪ (addr;po): early commit allowed
)

// ppoFixpoint computes the preserved program order of Fig. 25: the least
// fixpoint of the ii/ic/ci/cc equations over init/commit subevent orderings,
// then ppo = (ii ∩ RR) ∪ (ic ∩ RW).
//
// cfence is the architecture's control fence (isync or isb); variant selects
// the Power or ARM cc0. When static is true, the dynamic ingredients rdw
// and detour are excluded — the "more static" ppo the paper advocates
// exploring at the end of Sec. 8.2, reproduced by the nodetour ablation.
func ppoFixpoint(x *events.Execution, cfence events.FenceKind, variant ppoVariant, static bool) rel.Rel {
	n := x.N()
	dp := x.Addr.Union(x.Data)
	rdw, detour := rel.New(n), rel.New(n)
	if !static {
		rdw = x.POLoc.Inter(x.FRE.Seq(x.RFE))
		detour = x.POLoc.Inter(x.COE.Seq(x.RFE))
	}
	ctrlCfence := x.CtrlCfence[cfence]
	if ctrlCfence.N() != n {
		ctrlCfence = rel.New(n)
	}

	ii0 := dp.Union(rdw).Union(x.RFI)
	ic0 := rel.New(n)
	ci0 := ctrlCfence.Union(detour)
	cc0 := dp.Union(x.Ctrl).Union(x.Addr.Seq(x.PO.Restrict(x.M, x.M)))
	if variant == ppoPower {
		cc0 = cc0.Union(x.POLoc)
	}

	ii, ic, ci, cc := ii0, ic0, ci0, cc0
	for {
		nii := ii0.Union(ci).Union(ic.Seq(ci)).Union(ii.Seq(ii))
		nic := ic0.Union(ii).Union(cc).Union(ic.Seq(cc)).Union(ii.Seq(ic))
		nci := ci0.Union(ci.Seq(ii)).Union(cc.Seq(ci))
		ncc := cc0.Union(ci).Union(ci.Seq(ic)).Union(cc.Seq(cc))
		if nii.Equal(ii) && nic.Equal(ic) && nci.Equal(ci) && ncc.Equal(cc) {
			break
		}
		ii, ic, ci, cc = nii, nic, nci, ncc
	}
	return ii.Restrict(x.R, x.R).Union(ic.Restrict(x.R, x.W))
}

// propPowerARM computes the propagation order of Fig. 18:
//
//	prop-base = (fences ∪ (rfe ; fences)) ; hb*
//	prop      = (prop-base ∩ WW) ∪ (com* ; prop-base* ; ffence ; hb*)
func propPowerARM(x *events.Execution, ppo, fences, ffence rel.Rel) rel.Rel {
	hbStar := core.HB(x, ppo, fences).Star()
	propBase := fences.Union(x.RFE.Seq(fences)).Seq(hbStar)
	strong := x.Com.Star().Seq(propBase.Star()).Seq(ffence).Seq(hbStar)
	return propBase.Restrict(x.W, x.W).Union(strong)
}

type powerArch struct {
	// static drops rdw and detour from the ppo (the Sec. 8.2 ablation).
	static bool
	name   string
}

func (a powerArch) Name() string {
	if a.name != "" {
		return a.name
	}
	return "Power"
}

func (a powerArch) PPO(x *events.Execution) rel.Rel {
	return ppoFixpoint(x, events.FenceIsync, ppoPower, a.static)
}

// powerFfence is sync, the Power full fence.
func powerFfence(x *events.Execution) rel.Rel { return x.Fences(events.FenceSync) }

// powerLwfence is lwsync \ WR, plus eieio restricted to write-write pairs
// (Sec. 4.7: eieio is a lightweight barrier maintaining only WW pairs).
func powerLwfence(x *events.Execution) rel.Rel {
	lw := x.Fences(events.FenceLwsync)
	return lw.Diff(lw.Restrict(x.W, x.R)).Union(x.Fences(events.FenceEieio).Restrict(x.W, x.W))
}

func (powerArch) Fences(x *events.Execution) rel.Rel {
	return powerFfence(x).Union(powerLwfence(x))
}

func (powerArch) Prop(x *events.Execution, ppo, fences rel.Rel) rel.Rel {
	return propPowerARM(x, ppo, fences, powerFfence(x))
}

type armArch struct {
	ppoVariant ppoVariant
	name       string
	static     bool // drop rdw and detour (the Sec. 8.2 ablation)
}

func (a armArch) Name() string { return a.name }

func (a armArch) PPO(x *events.Execution) rel.Rel {
	return ppoFixpoint(x, events.FenceISB, a.ppoVariant, a.static)
}

// armFfence is dmb ∪ dsb, plus the .st variants restricted to write-write
// pairs (Sec. 4.7: .st fences are taken to be their unsuffixed counterparts
// limited to WW; ARM has no lightweight fence).
func armFfence(x *events.Execution) rel.Rel {
	f := x.Fences(events.FenceDMB).Union(x.Fences(events.FenceDSB))
	st := x.Fences(events.FenceDMBST).Union(x.Fences(events.FenceDSBST))
	return f.Union(st.Restrict(x.W, x.W))
}

func (armArch) Fences(x *events.Execution) rel.Rel { return armFfence(x) }

func (armArch) Prop(x *events.Execution, ppo, fences rel.Rel) rel.Rel {
	return propPowerARM(x, ppo, fences, armFfence(x))
}

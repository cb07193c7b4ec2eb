//! Circuit netlists: nodes and elements.

use crate::device::EgtModel;
use crate::SpiceError;
use std::sync::Arc;

/// Node identifier. Node 0 is always ground.
pub type NodeId = usize;

/// A circuit element.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// Linear resistor between two nodes.
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms (> 0).
        ohms: f64,
    },
    /// Ideal independent voltage source.
    VSource {
        /// Positive terminal.
        plus: NodeId,
        /// Negative terminal.
        minus: NodeId,
        /// EMF in volts.
        volts: f64,
    },
    /// Ideal voltage-controlled voltage source (used as an ideal
    /// inter-stage buffer in exported networks): enforces
    /// `V(plus) − V(minus) = gain · (V(ctrl_p) − V(ctrl_n))`.
    Vcvs {
        /// Positive output terminal.
        plus: NodeId,
        /// Negative output terminal.
        minus: NodeId,
        /// Positive controlling terminal (draws no current).
        ctrl_p: NodeId,
        /// Negative controlling terminal (draws no current).
        ctrl_n: NodeId,
        /// Voltage gain.
        gain: f64,
    },
    /// Linear capacitor (open in DC; integrated by the transient
    /// engine).
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads (> 0).
        farads: f64,
    },
    /// Ideal independent current source: `amps` flows from `plus`
    /// through the source to `minus`.
    ISource {
        /// Terminal the current is drawn from.
        plus: NodeId,
        /// Terminal the current is injected into.
        minus: NodeId,
        /// Source current in amperes.
        amps: f64,
    },
    /// N-type electrolyte-gated transistor.
    Egt {
        /// Drain terminal.
        drain: NodeId,
        /// Gate terminal (draws no DC current).
        gate: NodeId,
        /// Source terminal.
        source: NodeId,
        /// Channel width in meters.
        w: f64,
        /// Channel length in meters.
        l: f64,
        /// Compact-model parameters.
        model: EgtModel,
    },
}

/// A DC circuit under construction.
///
/// Nodes are created with [`Circuit::node`] (named, for debuggability)
/// and elements with the builder methods. Ground is [`Circuit::GROUND`].
///
/// Node names are shared between clones, so a clone that only changes
/// element values (a row's input drive, a perturbed print) copies the
/// element list alone.
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    names: Arc<Vec<String>>,
    elements: Vec<Element>,
}

impl Circuit {
    /// The ground node (reference, 0 V).
    pub const GROUND: NodeId = 0;

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        Circuit {
            names: Arc::new(vec!["gnd".to_string()]),
            elements: Vec::new(),
        }
    }

    /// Allocates a new node with a debug name.
    pub fn node(&mut self, name: &str) -> NodeId {
        Arc::make_mut(&mut self.names).push(name.to_string());
        self.names.len() - 1
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Name of a node (ground is `"gnd"`).
    ///
    /// # Panics
    ///
    /// Panics for an unknown node id.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.names[node]
    }

    /// All elements in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Number of voltage sources (extra MNA unknowns).
    pub fn vsource_count(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, Element::VSource { .. }))
            .count()
    }

    /// Number of branch-current unknowns (voltage sources + VCVS).
    pub fn branch_count(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, Element::VSource { .. } | Element::Vcvs { .. }))
            .count()
    }

    /// Adds an ideal voltage-controlled voltage source. Returns the
    /// element index.
    ///
    /// # Panics
    ///
    /// Panics on unknown nodes.
    pub fn vcvs(
        &mut self,
        plus: NodeId,
        minus: NodeId,
        ctrl_p: NodeId,
        ctrl_n: NodeId,
        // lint: dimensionless
        gain: f64,
    ) -> usize {
        self.check_node(plus);
        self.check_node(minus);
        self.check_node(ctrl_p);
        self.check_node(ctrl_n);
        self.elements.push(Element::Vcvs {
            plus,
            minus,
            ctrl_p,
            ctrl_n,
            gain,
        });
        self.elements.len() - 1
    }

    /// Adds a capacitor. Returns the element index.
    ///
    /// # Panics
    ///
    /// Panics on unknown nodes or non-positive capacitance.
    pub fn capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) -> usize {
        self.check_node(a);
        self.check_node(b);
        assert!(farads > 0.0, "capacitor must have positive capacitance");
        self.elements.push(Element::Capacitor { a, b, farads });
        self.elements.len() - 1
    }

    /// Adds an ideal current source. Returns the element index.
    ///
    /// # Panics
    ///
    /// Panics on unknown nodes.
    pub fn isource(&mut self, plus: NodeId, minus: NodeId, amps: f64) -> usize {
        self.check_node(plus);
        self.check_node(minus);
        self.elements.push(Element::ISource { plus, minus, amps });
        self.elements.len() - 1
    }

    fn check_node(&self, node: NodeId) {
        assert!(
            node < self.names.len(),
            "node id {node} not created on this circuit"
        );
    }

    /// Adds a resistor. Returns the element index.
    ///
    /// # Panics
    ///
    /// Panics on unknown nodes or non-positive resistance.
    pub fn resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) -> usize {
        self.check_node(a);
        self.check_node(b);
        assert!(ohms > 0.0, "resistor must have positive resistance");
        self.elements.push(Element::Resistor { a, b, ohms });
        self.elements.len() - 1
    }

    /// Adds an ideal voltage source. Returns the element index.
    ///
    /// # Panics
    ///
    /// Panics on unknown nodes.
    pub fn vsource(&mut self, plus: NodeId, minus: NodeId, volts: f64) -> usize {
        self.check_node(plus);
        self.check_node(minus);
        self.elements.push(Element::VSource { plus, minus, volts });
        self.elements.len() - 1
    }

    /// Adds an nEGT with the default compact model. Returns the element
    /// index.
    ///
    /// # Panics
    ///
    /// Panics on unknown nodes or non-positive geometry.
    // lint: allow(L004, reason = "only the W/L ratio enters the model; any consistent length unit works")
    pub fn egt(&mut self, drain: NodeId, gate: NodeId, source: NodeId, w: f64, l: f64) -> usize {
        self.egt_with_model(drain, gate, source, w, l, EgtModel::default())
    }

    /// Adds an nEGT with an explicit compact model. Returns the element
    /// index.
    ///
    /// # Panics
    ///
    /// Panics on unknown nodes or non-positive geometry.
    pub fn egt_with_model(
        &mut self,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        // lint: allow(L004, reason = "only the W/L ratio enters the model; any consistent length unit works")
        w: f64,
        // lint: allow(L004, reason = "only the W/L ratio enters the model; any consistent length unit works")
        l: f64,
        model: EgtModel,
    ) -> usize {
        self.check_node(drain);
        self.check_node(gate);
        self.check_node(source);
        assert!(w > 0.0 && l > 0.0, "EGT geometry must be positive");
        self.elements.push(Element::Egt {
            drain,
            gate,
            source,
            w,
            l,
            model,
        });
        self.elements.len() - 1
    }

    /// Replaces the EMF of an existing voltage source (used for DC
    /// sweeps and supply ramping).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidParameter`] if `index` does not
    /// refer to a voltage source.
    pub fn set_vsource(&mut self, index: usize, volts: f64) -> Result<(), SpiceError> {
        match self.elements.get_mut(index) {
            Some(Element::VSource { volts: v, .. }) => {
                *v = volts;
                Ok(())
            }
            _ => Err(SpiceError::InvalidParameter {
                message: format!("element {index} is not a voltage source"),
            }),
        }
    }

    /// EMF of a voltage source element.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidParameter`] if `index` does not
    /// refer to a voltage source.
    pub fn vsource_volts(&self, index: usize) -> Result<f64, SpiceError> {
        match self.elements.get(index) {
            Some(Element::VSource { volts, .. }) => Ok(*volts),
            _ => Err(SpiceError::InvalidParameter {
                message: format!("element {index} is not a voltage source"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_exists_by_default() {
        let c = Circuit::new();
        assert_eq!(c.node_count(), 1);
        assert_eq!(c.node_name(Circuit::GROUND), "gnd");
    }

    #[test]
    fn nodes_get_sequential_ids() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        assert_eq!(a, 1);
        assert_eq!(b, 2);
        assert_eq!(c.node_name(b), "b");
    }

    #[test]
    fn elements_are_recorded() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource(a, Circuit::GROUND, 1.0);
        c.resistor(a, Circuit::GROUND, 100.0);
        c.egt(a, a, Circuit::GROUND, 1e-4, 1e-5);
        assert_eq!(c.elements().len(), 3);
        assert_eq!(c.vsource_count(), 1);
    }

    #[test]
    fn set_vsource_updates_emf() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let idx = c.vsource(a, Circuit::GROUND, 1.0);
        c.set_vsource(idx, 0.25).unwrap();
        assert_eq!(c.vsource_volts(idx).unwrap(), 0.25);
    }

    #[test]
    fn set_vsource_rejects_non_source() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let idx = c.resistor(a, Circuit::GROUND, 100.0);
        assert!(c.set_vsource(idx, 1.0).is_err());
        assert!(c.vsource_volts(idx).is_err());
    }

    #[test]
    fn capacitor_and_isource_are_recorded() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.capacitor(a, Circuit::GROUND, 1e-9);
        c.isource(a, Circuit::GROUND, 1e-6);
        assert_eq!(c.elements().len(), 2);
        // Neither adds a branch unknown.
        assert_eq!(c.branch_count(), 0);
    }

    #[test]
    #[should_panic(expected = "positive capacitance")]
    fn rejects_nonpositive_capacitance() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.capacitor(a, Circuit::GROUND, 0.0);
    }

    #[test]
    fn vcvs_is_recorded_as_branch() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource(a, Circuit::GROUND, 1.0);
        c.vcvs(b, Circuit::GROUND, a, Circuit::GROUND, 2.0);
        assert_eq!(c.vsource_count(), 1);
        assert_eq!(c.branch_count(), 2);
    }

    #[test]
    #[should_panic(expected = "positive resistance")]
    fn rejects_negative_resistance() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor(a, Circuit::GROUND, -5.0);
    }

    #[test]
    #[should_panic(expected = "not created")]
    fn rejects_unknown_node() {
        let mut c = Circuit::new();
        c.resistor(0, 99, 100.0);
    }
}

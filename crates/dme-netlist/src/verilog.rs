//! Structural Verilog emission and parsing.
//!
//! Generated designs can be written as a flat gate-level Verilog module
//! (one instance per line, positional pin order `Y, A, B, …` matching
//! the master's input count) and read back against a library. The pair
//! covers the structural subset this workspace produces — no behavioral
//! constructs, one module per file — which is what placement/timing
//! tools exchange.

use crate::graph::{InstId, Instance, Net, NetId, Netlist};
use dme_liberty::Library;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Errors from [`parse_netlist`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParseVerilogError {
    /// The text has no `module` header.
    MissingModule,
    /// A statement could not be understood.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Problem description.
        message: String,
    },
    /// An instance references a master missing from the library.
    UnknownMaster {
        /// 1-based line number.
        line: usize,
        /// The master name.
        master: String,
    },
    /// An instance has the wrong number of connections for its master.
    PinCount {
        /// 1-based line number.
        line: usize,
        /// Instance name.
        instance: String,
    },
    /// A net is driven by two outputs or an output drives a declared input.
    MultipleDrivers {
        /// Net name.
        net: String,
    },
}

impl fmt::Display for ParseVerilogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseVerilogError::MissingModule => write!(f, "no module header found"),
            ParseVerilogError::Syntax { line, message } => {
                write!(f, "verilog syntax error at line {line}: {message}")
            }
            ParseVerilogError::UnknownMaster { line, master } => {
                write!(f, "unknown cell master {master:?} at line {line}")
            }
            ParseVerilogError::PinCount { line, instance } => {
                write!(
                    f,
                    "wrong connection count on instance {instance:?} at line {line}"
                )
            }
            ParseVerilogError::MultipleDrivers { net } => {
                write!(f, "net {net:?} has multiple drivers")
            }
        }
    }
}

impl Error for ParseVerilogError {}

/// Emits a netlist as a flat structural Verilog module.
///
/// Primary inputs and outputs become module ports; every instance is
/// written positionally as `MASTER name (out, in0, in1, …);`. Sequential
/// masters additionally receive a trailing `clk` connection.
pub fn write_netlist(nl: &Netlist, lib: &Library, module: &str) -> String {
    let mut out = String::new();
    let net_name = |id: NetId| format!("n{}", id.0);
    let mut ports: Vec<String> = Vec::new();
    for &pi in &nl.primary_inputs {
        ports.push(net_name(pi));
    }
    for &po in &nl.primary_outputs {
        ports.push(format!("{}_po", net_name(po)));
    }
    let has_seq = nl.instances.iter().any(|i| i.is_sequential);
    if has_seq {
        ports.push("clk".into());
    }
    let _ = writeln!(out, "module {module} ({});", ports.join(", "));
    for &pi in &nl.primary_inputs {
        let _ = writeln!(out, "  input {};", net_name(pi));
    }
    if has_seq {
        let _ = writeln!(out, "  input clk;");
    }
    for &po in &nl.primary_outputs {
        let _ = writeln!(out, "  output {}_po;", net_name(po));
    }
    for (i, net) in nl.nets.iter().enumerate() {
        let id = NetId(i as u32);
        if net.driver.is_some() && !nl.primary_inputs.contains(&id) {
            let _ = writeln!(out, "  wire {};", net_name(id));
        }
    }
    for &po in &nl.primary_outputs {
        let _ = writeln!(out, "  assign {}_po = {};", net_name(po), net_name(po));
    }
    for inst in &nl.instances {
        let master = lib.cell(inst.cell_idx);
        let mut conns: Vec<String> = vec![net_name(inst.output)];
        conns.extend(inst.inputs.iter().map(|&n| net_name(n)));
        if inst.is_sequential {
            conns.push("clk".into());
        }
        let _ = writeln!(
            out,
            "  {} {} ({});",
            master.name(),
            inst.name,
            conns.join(", ")
        );
    }
    let _ = writeln!(out, "endmodule");
    out
}

/// Parses a flat structural Verilog module written by [`write_netlist`]
/// (or equivalent: positional connections, output first).
///
/// # Errors
///
/// Returns a [`ParseVerilogError`] describing the first problem found.
pub fn parse_netlist(text: &str, lib: &Library) -> Result<Netlist, ParseVerilogError> {
    // Join statements (a statement ends with ';'), tracking line numbers.
    let mut statements: Vec<(usize, String)> = Vec::new();
    let mut pending = String::new();
    let mut pending_line = 0usize;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split("//").next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if pending.is_empty() {
            pending_line = i + 1;
        }
        pending.push(' ');
        pending.push_str(line);
        while let Some(pos) = pending.find(';') {
            let stmt: String = pending[..pos].trim().to_string();
            pending = pending[pos + 1..].to_string();
            if !stmt.is_empty() {
                statements.push((pending_line, stmt));
            }
        }
        if pending.trim() == "endmodule" {
            statements.push((i + 1, "endmodule".into()));
            pending.clear();
        }
    }

    let mut nl = Netlist::default();
    let mut net_ids: HashMap<String, NetId> = HashMap::new();
    let mut intern = |nl: &mut Netlist, name: &str| -> NetId {
        if let Some(&id) = net_ids.get(name) {
            return id;
        }
        let id = NetId(nl.nets.len() as u32);
        nl.nets.push(Net {
            name: name.to_string(),
            ..Net::default()
        });
        net_ids.insert(name.to_string(), id);
        id
    };
    // Per net: whether an `input` statement declared it.
    let mut is_input: Vec<bool> = Vec::new();
    let mut saw_module = false;
    let mut outputs: Vec<String> = Vec::new();
    let mut assigns: Vec<(String, String)> = Vec::new();

    for (line, stmt) in &statements {
        let line = *line;
        let stmt = stmt.trim();
        if stmt.starts_with("module") {
            saw_module = true;
            continue;
        }
        if stmt == "endmodule" {
            break;
        }
        if !saw_module {
            return Err(ParseVerilogError::MissingModule);
        }
        if let Some(rest) = stmt.strip_prefix("input ") {
            for name in rest.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                if name == "clk" {
                    continue;
                }
                let id = intern(&mut nl, name);
                let k = id.0 as usize;
                if nl.nets[k].driver.is_some() {
                    return Err(ParseVerilogError::MultipleDrivers {
                        net: name.to_string(),
                    });
                }
                is_input.resize(nl.nets.len(), false);
                if !is_input[k] {
                    is_input[k] = true;
                    nl.primary_inputs.push(id);
                }
            }
        } else if let Some(rest) = stmt.strip_prefix("output ") {
            outputs.extend(rest.split(',').map(|s| s.trim().to_string()));
        } else if let Some(rest) = stmt.strip_prefix("wire ") {
            for name in rest.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                intern(&mut nl, name);
            }
        } else if let Some(rest) = stmt.strip_prefix("assign ") {
            let mut parts = rest.splitn(2, '=');
            let (lhs, rhs) = (
                parts.next().unwrap_or("").trim().to_string(),
                parts.next().unwrap_or("").trim().to_string(),
            );
            if rhs.is_empty() {
                return Err(ParseVerilogError::Syntax {
                    line,
                    message: "assign without right-hand side".into(),
                });
            }
            assigns.push((lhs, rhs));
        } else {
            // `MASTER name (a, b, c)`
            let open = stmt.find('(').ok_or_else(|| ParseVerilogError::Syntax {
                line,
                message: format!("unrecognized statement {stmt:?}"),
            })?;
            let close = stmt
                .rfind(')')
                .filter(|&close| close > open)
                .ok_or_else(|| ParseVerilogError::Syntax {
                    line,
                    message: "missing ')' after '('".into(),
                })?;
            let head: Vec<&str> = stmt[..open].split_whitespace().collect();
            let [master_name, inst_name] = head[..] else {
                return Err(ParseVerilogError::Syntax {
                    line,
                    message: format!("expected `MASTER name (...)` in {stmt:?}"),
                });
            };
            let cell_idx =
                lib.index_of(master_name)
                    .ok_or_else(|| ParseVerilogError::UnknownMaster {
                        line,
                        master: master_name.to_string(),
                    })?;
            let master = lib.cell(cell_idx);
            let mut conns: Vec<&str> = stmt[open + 1..close].split(',').map(str::trim).collect();
            if master.is_sequential() {
                // Drop the trailing clock connection.
                if conns.last() == Some(&"clk") {
                    conns.pop();
                }
            }
            if conns.len() != master.num_inputs() + 1 {
                return Err(ParseVerilogError::PinCount {
                    line,
                    instance: inst_name.to_string(),
                });
            }
            let out_net = intern(&mut nl, conns[0]);
            let inputs: Vec<NetId> = conns[1..].iter().map(|c| intern(&mut nl, c)).collect();
            let id = InstId(nl.instances.len() as u32);
            let k = out_net.0 as usize;
            if nl.nets[k].driver.is_some() || is_input.get(k).copied().unwrap_or(false) {
                return Err(ParseVerilogError::MultipleDrivers {
                    net: conns[0].to_string(),
                });
            }
            nl.nets[k].driver = Some(id);
            for (pin, &net) in inputs.iter().enumerate() {
                nl.nets[net.0 as usize].sinks.push((id, pin));
            }
            nl.instances.push(Instance {
                name: inst_name.to_string(),
                cell_idx,
                inputs,
                output: out_net,
                is_sequential: master.is_sequential(),
            });
        }
    }
    if !saw_module {
        return Err(ParseVerilogError::MissingModule);
    }
    // Resolve `assign po = net` pairs into primary-output flags.
    for (lhs, rhs) in assigns {
        if outputs.contains(&lhs) {
            if let Some(&id) = net_ids.get(rhs.as_str()) {
                nl.nets[id.0 as usize].is_primary_output = true;
                nl.primary_outputs.push(id);
            }
        }
    }
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, profiles};
    use dme_device::Technology;

    fn lib() -> Library {
        Library::standard(Technology::n65())
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let lib = lib();
        let d = gen::generate(&profiles::tiny(), &lib);
        let text = write_netlist(&d.netlist, &lib, "tiny");
        let back = parse_netlist(&text, &lib).expect("parse");
        assert_eq!(back.num_instances(), d.netlist.num_instances());
        assert_eq!(back.primary_inputs.len(), d.netlist.primary_inputs.len());
        assert_eq!(back.primary_outputs.len(), d.netlist.primary_outputs.len());
        back.validate(&lib).expect("valid");
        // Instance-by-instance: same master, same connectivity pattern
        // (net ids may be renumbered; compare through net names).
        for (a, b) in d.netlist.instances.iter().zip(&back.instances) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.cell_idx, b.cell_idx);
            assert_eq!(a.inputs.len(), b.inputs.len());
        }
        // Topology equivalence: same paper indexing multiset of levels.
        assert_eq!(
            crate::stats::levels(&d.netlist),
            crate::stats::levels(&back)
        );
    }

    #[test]
    fn emitted_text_is_plausible_verilog() {
        let lib = lib();
        let d = gen::generate(&profiles::tiny(), &lib);
        let text = write_netlist(&d.netlist, &lib, "tiny");
        assert!(text.starts_with("module tiny ("));
        assert!(text.trim_end().ends_with("endmodule"));
        assert!(text.contains("input clk;"));
        assert!(text.contains("DFFX1 ff0 ("));
    }

    #[test]
    fn unknown_master_is_reported() {
        let lib = lib();
        let text = "module m (a);\n input a;\n FOOX9 u0 (w, a);\nendmodule\n";
        assert!(matches!(
            parse_netlist(text, &lib),
            Err(ParseVerilogError::UnknownMaster { .. })
        ));
    }

    #[test]
    fn pin_count_is_checked() {
        let lib = lib();
        let text = "module m (a);\n input a;\n NAND2X1 u0 (w, a);\nendmodule\n";
        assert!(matches!(
            parse_netlist(text, &lib),
            Err(ParseVerilogError::PinCount { .. })
        ));
    }

    #[test]
    fn multiple_drivers_are_rejected() {
        let lib = lib();
        let text = "module m (a);\n input a;\n INVX1 u0 (w, a);\n INVX1 u1 (w, a);\nendmodule\n";
        assert!(matches!(
            parse_netlist(text, &lib),
            Err(ParseVerilogError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn close_before_open_is_a_syntax_error() {
        let lib = lib();
        let text = "module m (a);\n input a;\n INVX1 u0) (w, a;\nendmodule\n";
        assert!(matches!(
            parse_netlist(text, &lib),
            Err(ParseVerilogError::Syntax { line: 3, .. })
        ));
    }

    #[test]
    fn an_output_driving_a_declared_input_is_rejected() {
        let lib = lib();
        for text in [
            "module m (a, b);\n input a, b;\n INVX1 u0 (a, b);\nendmodule\n",
            "module m (a, b);\n input b;\n INVX1 u0 (a, b);\n input a;\nendmodule\n",
        ] {
            assert_eq!(
                parse_netlist(text, &lib).err(),
                Some(ParseVerilogError::MultipleDrivers { net: "a".into() }),
                "{text}"
            );
        }
    }

    #[test]
    fn missing_module_is_reported() {
        let lib = lib();
        assert!(matches!(
            parse_netlist("INVX1 u0 (w, a);", &lib),
            Err(ParseVerilogError::MissingModule)
        ));
    }

    #[test]
    fn multiline_statements_parse() {
        let lib = lib();
        let text = "module m (a);\n input a;\n wire w;\n INVX1 u0 (\n   w,\n   a\n );\nendmodule\n";
        let nl = parse_netlist(text, &lib).expect("parse");
        assert_eq!(nl.num_instances(), 1);
    }
}

//! The file through which the oracle process hands its answers to the
//! workload process: named sections, each a list of strings, every length
//! a little-endian `u64` prefix.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::path::Path;

/// Answers keyed by section name.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Answers {
    pub sections: BTreeMap<String, Vec<String>>,
}

fn put(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn take<'a>(buf: &'a [u8], pos: &mut usize) -> io::Result<&'a [u8]> {
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "truncated answers file");
    let len_end = pos
        .checked_add(8)
        .filter(|&e| e <= buf.len())
        .ok_or_else(bad)?;
    let len = u64::from_le_bytes(buf[*pos..len_end].try_into().expect("eight bytes"));
    let end = usize::try_from(len)
        .ok()
        .and_then(|l| len_end.checked_add(l))
        .filter(|&e| e <= buf.len())
        .ok_or_else(bad)?;
    *pos = end;
    Ok(&buf[len_end..end])
}

fn take_str(buf: &[u8], pos: &mut usize) -> io::Result<String> {
    String::from_utf8(take(buf, pos)?.to_vec())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

impl Answers {
    pub fn insert(&mut self, name: &str, values: Vec<String>) {
        self.sections.insert(name.to_owned(), values);
    }

    pub fn get(&self, name: &str) -> io::Result<&[String]> {
        self.sections.get(name).map(Vec::as_slice).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("answers lack section {name}"),
            )
        })
    }

    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = Vec::new();
        for (name, values) in &self.sections {
            put(&mut out, name);
            put(&mut out, &values.len().to_string());
            for v in values {
                put(&mut out, v);
            }
        }
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(&out)?;
        f.flush()
    }

    pub fn read(path: &Path) -> io::Result<Self> {
        let mut buf = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut buf)?;
        let mut pos = 0;
        let mut answers = Answers::default();
        while pos < buf.len() {
            let name = take_str(&buf, &mut pos)?;
            let n: usize = take_str(&buf, &mut pos)?
                .parse()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let mut values = Vec::with_capacity(n.min(buf.len()));
            for _ in 0..n {
                values.push(take_str(&buf, &mut pos)?);
            }
            answers.sections.insert(name, values);
        }
        Ok(answers)
    }
}

//! Dataset persistence in a compact custom binary format.
//!
//! The mask images are stored as bytes (`0..=255` quantisation of `[0,1]`
//! coverage values) and golden windows as packed bits, so a paper-scale
//! 982-clip dataset at 256 × 256 stays around 200 MB. Process presets are
//! stored by name (`"N10"`/`"N7"`) and reconstructed on load.

use std::io::{Read, Write};
use std::path::Path;

use litho_layout::{Clip, ClipFamily, Rect};
use litho_sim::ProcessConfig;
use litho_tensor::{Result, Tensor, TensorError};

use crate::{Dataset, DatasetConfig, Sample};

const MAGIC: &[u8; 4] = b"LGD3";

fn io_err(err: std::io::Error) -> TensorError {
    TensorError::InvalidArgument(format!("dataset i/o: {err}"))
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> Result<()> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b).map_err(io_err)?;
    Ok(u32::from_le_bytes(b))
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> Result<()> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b).map_err(io_err)?;
    Ok(u64::from_le_bytes(b))
}

fn write_f64<W: Write>(w: &mut W, v: f64) -> Result<()> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn read_f64<R: Read>(r: &mut R) -> Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b).map_err(io_err)?;
    Ok(f64::from_le_bytes(b))
}

fn family_code(f: ClipFamily) -> u8 {
    match f {
        ClipFamily::Isolated => 0,
        ClipFamily::Chain1d => 1,
        ClipFamily::Array2d => 2,
    }
}

fn family_from(code: u8) -> Result<ClipFamily> {
    match code {
        0 => Ok(ClipFamily::Isolated),
        1 => Ok(ClipFamily::Chain1d),
        2 => Ok(ClipFamily::Array2d),
        c => Err(TensorError::InvalidArgument(format!(
            "unknown clip family code {c}"
        ))),
    }
}

fn write_rect<W: Write>(w: &mut W, r: &Rect) -> Result<()> {
    for v in [r.x0, r.y0, r.x1, r.y1] {
        write_f64(w, v)?;
    }
    Ok(())
}

fn read_rect<R: Read>(r: &mut R) -> Result<Rect> {
    let x0 = read_f64(r)?;
    let y0 = read_f64(r)?;
    let x1 = read_f64(r)?;
    let y1 = read_f64(r)?;
    Ok(Rect::new(x0, y0, x1, y1))
}

fn write_clip<W: Write>(w: &mut W, clip: &Clip) -> Result<()> {
    write_f64(w, clip.extent_nm)?;
    write_rect(w, &clip.target)?;
    write_u32(w, clip.neighbors.len() as u32)?;
    for r in &clip.neighbors {
        write_rect(w, r)?;
    }
    write_u32(w, clip.srafs.len() as u32)?;
    for r in &clip.srafs {
        write_rect(w, r)?;
    }
    Ok(())
}

fn read_clip<R: Read>(r: &mut R) -> Result<Clip> {
    let extent_nm = read_f64(r)?;
    let target = read_rect(r)?;
    let mut clip = Clip::new(extent_nm, target);
    let n = read_u32(r)? as usize;
    for _ in 0..n {
        clip.neighbors.push(read_rect(r)?);
    }
    let n = read_u32(r)? as usize;
    for _ in 0..n {
        clip.srafs.push(read_rect(r)?);
    }
    Ok(clip)
}

fn pack_bits(image: &Tensor) -> Vec<u8> {
    let mut out = vec![0u8; image.len().div_ceil(8)];
    for (i, &v) in image.as_slice().iter().enumerate() {
        if v >= 0.5 {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

fn unpack_bits(bytes: &[u8], dims: &[usize]) -> Result<Tensor> {
    let n: usize = dims.iter().product();
    let data = (0..n)
        .map(|i| {
            if bytes[i / 8] & (1 << (i % 8)) != 0 {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    Tensor::from_vec(data, dims)
}

/// Writes a dataset to `path`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] on I/O failure or when the
/// process is not a named preset (only `"N10"`/`"N7"` round-trip).
pub fn save_dataset<P: AsRef<Path>>(dataset: &Dataset, path: P) -> Result<()> {
    let cfg = &dataset.config;
    if cfg.process.name != "N10" && cfg.process.name != "N7" {
        return Err(TensorError::InvalidArgument(format!(
            "only preset processes can be persisted, got {:?}",
            cfg.process.name
        )));
    }
    let file = std::fs::File::create(path).map_err(io_err)?;
    let mut w = std::io::BufWriter::new(file);
    w.write_all(MAGIC).map_err(io_err)?;
    let name = cfg.process.name.as_bytes();
    write_u32(&mut w, name.len() as u32)?;
    w.write_all(name).map_err(io_err)?;
    write_u32(&mut w, cfg.clip_count as u32)?;
    write_u32(&mut w, cfg.image_size as u32)?;
    write_u32(&mut w, cfg.sim_grid as u32)?;
    write_f64(&mut w, cfg.golden_window_nm)?;
    write_f64(&mut w, cfg.train_fraction)?;
    write_u64(&mut w, cfg.seed)?;
    write_f64(&mut w, cfg.mask_jitter_nm)?;

    write_u32(&mut w, dataset.samples.len() as u32)?;
    let s = cfg.image_size;
    for sample in &dataset.samples {
        write_clip(&mut w, &sample.clip)?;
        w.write_all(&[family_code(sample.family)]).map_err(io_err)?;
        w.write_all(&sample.center_px.0.to_le_bytes()).map_err(io_err)?;
        w.write_all(&sample.center_px.1.to_le_bytes()).map_err(io_err)?;
        // Mask: u8 quantisation.
        let mask_bytes: Vec<u8> = sample
            .mask
            .as_slice()
            .iter()
            .map(|&v| (v.clamp(0.0, 1.0) * 255.0).round() as u8)
            .collect();
        debug_assert_eq!(mask_bytes.len(), 3 * s * s);
        w.write_all(&mask_bytes).map_err(io_err)?;
        // Goldens: packed bits.
        w.write_all(&pack_bits(&sample.golden)).map_err(io_err)?;
        w.write_all(&pack_bits(&sample.golden_centered)).map_err(io_err)?;
    }
    Ok(())
}

/// Longest process-preset name a dataset may declare (`"N10"`, `"N7"`).
const MAX_NAME_LEN: usize = 16;

/// Largest image side a dataset may declare; the paper's is 256.
const MAX_IMAGE_SIZE: usize = 1 << 14;

fn corrupt(what: String) -> TensorError {
    TensorError::InvalidArgument(format!("corrupt dataset: {what}"))
}

/// Reads a dataset previously written by [`save_dataset`].
///
/// Every header field is untrusted: sizes are bounded and checked against
/// the file's length before anything is allocated from them, so a
/// truncated or corrupt file is an error, never a panic or a header-sized
/// allocation.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] on I/O failure, bad magic, an
/// unknown process name, or a header field the file cannot hold.
pub fn load_dataset<P: AsRef<Path>>(path: P) -> Result<Dataset> {
    let file = std::fs::File::open(path).map_err(io_err)?;
    let len = file.metadata().map_err(io_err)?.len();
    read_dataset(&mut std::io::BufReader::new(file), len)
}

/// [`load_dataset`] over a reader holding exactly `len` bytes.
fn read_dataset<R: Read>(r: &mut R, len: u64) -> Result<Dataset> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(io_err)?;
    if &magic != MAGIC {
        return Err(TensorError::InvalidArgument("not a LGD3 dataset".into()));
    }
    let name_len = read_u32(r)? as usize;
    if name_len > MAX_NAME_LEN {
        return Err(corrupt(format!("process name of {name_len} bytes")));
    }
    let mut name = vec![0u8; name_len];
    r.read_exact(&mut name).map_err(io_err)?;
    let process = match name.as_slice() {
        b"N10" => ProcessConfig::n10(),
        b"N7" => ProcessConfig::n7(),
        other => {
            return Err(TensorError::InvalidArgument(format!(
                "unknown process preset {:?}",
                String::from_utf8_lossy(other)
            )))
        }
    };
    let clip_count = read_u32(r)? as usize;
    let image_size = read_u32(r)? as usize;
    let sim_grid = read_u32(r)? as usize;
    let golden_window_nm = read_f64(r)?;
    let train_fraction = read_f64(r)?;
    let seed = read_u64(r)?;
    let mask_jitter_nm = read_f64(r)?;
    let config = DatasetConfig {
        process,
        clip_count,
        image_size,
        sim_grid,
        golden_window_nm,
        train_fraction,
        seed,
        mask_jitter_nm,
    };

    let count = read_u32(r)? as usize;
    let s = image_size;
    if s > MAX_IMAGE_SIZE {
        return Err(corrupt(format!("image size {s}")));
    }
    // Bounded above, so none of these can overflow.
    let mask_len = 3 * s * s;
    let bits_len = (s * s).div_ceil(8);
    // The header is the magic, five u32 fields (one the name's length),
    // the name and four 8-byte fields; a sample is at least its fixed clip
    // fields, the family/center head, the mask bytes and both golden bit
    // planes.
    let header_len = 56 + name_len as u64;
    let min_sample = (8 + 32 + 4 + 4 + 9 + mask_len + 2 * bits_len) as u64;
    if (count as u64).saturating_mul(min_sample) > len.saturating_sub(header_len) {
        return Err(corrupt(format!(
            "{count} samples of at least {min_sample} bytes in a {len}-byte file"
        )));
    }
    let mut samples = Vec::with_capacity(count);
    for _ in 0..count {
        let clip = read_clip(r)?;
        let mut head = [0u8; 9];
        r.read_exact(&mut head).map_err(io_err)?;
        let family = family_from(head[0])?;
        let cy = f32::from_le_bytes([head[1], head[2], head[3], head[4]]);
        let cx = f32::from_le_bytes([head[5], head[6], head[7], head[8]]);
        let mut mask_bytes = vec![0u8; mask_len];
        r.read_exact(&mut mask_bytes).map_err(io_err)?;
        let mask = Tensor::from_vec(
            mask_bytes.iter().map(|&b| b as f32 / 255.0).collect(),
            &[3, s, s],
        )?;
        let mut golden_bits = vec![0u8; bits_len];
        r.read_exact(&mut golden_bits).map_err(io_err)?;
        let golden = unpack_bits(&golden_bits, &[s, s])?;
        let mut centered_bits = vec![0u8; bits_len];
        r.read_exact(&mut centered_bits).map_err(io_err)?;
        let golden_centered = unpack_bits(&centered_bits, &[s, s])?;
        samples.push(Sample {
            clip,
            mask,
            golden,
            golden_centered,
            center_px: (cy, cx),
            family,
        });
    }
    Ok(Dataset { config, samples })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset() -> Dataset {
        let mut golden = Tensor::zeros(&[8, 8]);
        golden.set(&[3, 4], 1.0).unwrap();
        Dataset {
            config: DatasetConfig::scaled(ProcessConfig::n10(), 1, 8),
            samples: vec![Sample {
                clip: {
                    let mut c = Clip::new(
                        2048.0,
                        Rect::centered_square(1024.0, 1024.0, 80.0),
                    );
                    c.neighbors.push(Rect::centered_square(1200.0, 1024.0, 80.0));
                    c.srafs.push(Rect::centered(1024.0, 900.0, 96.0, 24.0));
                    c
                },
                mask: Tensor::full(&[3, 8, 8], 0.5),
                golden: golden.clone(),
                golden_centered: golden,
                center_px: (3.0, 4.0),
                family: ClipFamily::Chain1d,
            }],
        }
    }

    #[test]
    fn round_trip() {
        let dir = std::env::temp_dir().join("lithogan_ds_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.lgd");
        let ds = tiny_dataset();
        save_dataset(&ds, &path).unwrap();
        let loaded = load_dataset(&path).unwrap();
        assert_eq!(loaded.config, ds.config);
        assert_eq!(loaded.samples.len(), 1);
        let (a, b) = (&loaded.samples[0], &ds.samples[0]);
        assert_eq!(a.clip, b.clip);
        assert_eq!(a.family, b.family);
        assert_eq!(a.center_px, b.center_px);
        assert_eq!(a.golden, b.golden);
        // Mask round-trips within quantisation error.
        for (x, y) in a.mask.as_slice().iter().zip(b.mask.as_slice()) {
            assert!((x - y).abs() < 1.0 / 255.0 + 1e-6);
        }
    }

    #[test]
    fn rejects_garbage() {
        let dir = std::env::temp_dir().join("lithogan_ds_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.lgd");
        std::fs::write(&path, b"not a dataset").unwrap();
        assert!(load_dataset(&path).is_err());
    }

    /// `tiny_dataset` as file bytes; `tag` keeps parallel tests' files apart.
    fn tiny_bytes(tag: &str) -> Vec<u8> {
        let name = format!("lithogan_ds_{}_{tag}.lgd", std::process::id());
        let path = std::env::temp_dir().join(name);
        save_dataset(&tiny_dataset(), &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        bytes
    }

    fn load_bytes(bytes: &[u8]) -> Result<Dataset> {
        read_dataset(&mut &bytes[..], bytes.len() as u64)
    }

    #[test]
    fn rejects_oversized_header_fields() {
        let bytes = tiny_bytes("oversized");
        assert!(load_bytes(&bytes).is_ok());
        // Offsets of the u32 header fields in a file whose name is "N10".
        let name_len_at = 4;
        let image_size_at = 4 + 4 + 3 + 4;
        let count_at = image_size_at + 4 + 4 + 32;
        for (at, v) in [
            (name_len_at, u32::MAX),
            (name_len_at, MAX_NAME_LEN as u32 + 1),
            (image_size_at, u32::MAX),
            (image_size_at, MAX_IMAGE_SIZE as u32),
            (count_at, u32::MAX),
            (count_at, 2),
        ] {
            let mut bad = bytes.clone();
            bad[at..at + 4].copy_from_slice(&v.to_le_bytes());
            assert!(load_bytes(&bad).is_err(), "field at {at} = {v} accepted");
        }
    }

    #[test]
    fn rejects_every_truncation() {
        let bytes = tiny_bytes("truncated");
        for cut in 0..bytes.len() {
            assert!(load_bytes(&bytes[..cut]).is_err(), "truncation at {cut} accepted");
        }
    }

    #[test]
    fn bit_packing_round_trip() {
        let mut img = Tensor::zeros(&[5, 5]);
        img.set(&[0, 0], 1.0).unwrap();
        img.set(&[4, 4], 1.0).unwrap();
        img.set(&[2, 3], 1.0).unwrap();
        let packed = pack_bits(&img);
        assert_eq!(packed.len(), 4); // 25 bits -> 4 bytes
        let back = unpack_bits(&packed, &[5, 5]).unwrap();
        assert_eq!(back, img);
    }
}

//! A minimal blocking client for the line protocol.

use crate::protocol::{Body, Request, Response};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;

/// One connection to a `tweeql-server`.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The header or body line being read.
    line: String,
}

impl Client {
    /// Connect to a local server.
    pub fn connect(port: u16) -> io::Result<Client> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Send one request and read its complete framed response.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        self.writer.write_all(format!("{req}\n").as_bytes())?;

        self.read_line("server closed the connection")?;
        let (ok, nbody, detail) = Response::parse_header(&self.line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let mut body = Body::default();
        for _ in 0..nbody {
            self.read_line("truncated response body")?;
            body.push_line(self.line.trim_end());
        }
        Ok(Response { ok, detail, body })
    }

    /// Read the next line into `self.line`; `eof` says what its absence
    /// means.
    fn read_line(&mut self, eof: &str) -> io::Result<()> {
        self.line.clear();
        match self.reader.read_line(&mut self.line)? {
            0 => Err(io::Error::new(io::ErrorKind::UnexpectedEof, eof)),
            _ => Ok(()),
        }
    }
}

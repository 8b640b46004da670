import com.sun.tools.javac.parser.Scanner;
import com.sun.tools.javac.parser.ScannerFactory;
import com.sun.tools.javac.parser.Tokens.Token;
import com.sun.tools.javac.parser.Tokens.TokenKind;
import com.sun.tools.javac.util.Context;
import com.sun.tools.javac.util.Log;
import java.io.PrintWriter;
import java.io.Writer;
import java.nio.charset.StandardCharsets;
import java.nio.file.Files;
import java.nio.file.Path;
import javax.tools.SimpleJavaFileObject;

/**
 * Prints the tokens javac's scanner reads in each file named on the command
 * line: a line "= <file>", then one line per token, "<line>\t<lexeme>". The
 * line follows JLS 3.4 (LF, CR LF and a lone CR each end a line); the lexeme
 * is the token's source text, with backslash, tab, CR and LF escaped as
 * \\, \t, \r and \n. A token javac cannot read prints as "<line>\t!error";
 * its error messages are dropped.
 *
 * Run it as
 *   java --add-exports jdk.compiler/com.sun.tools.javac.parser=ALL-UNNAMED \
 *        --add-exports jdk.compiler/com.sun.tools.javac.util=ALL-UNNAMED \
 *        Scan.java FILE...
 */
public class Scan {
    public static void main(String[] args) throws Exception {
        Context context = new Context();
        Log log = Log.instance(context);
        log.setWriters(new PrintWriter(Writer.nullWriter()));
        ScannerFactory factory = ScannerFactory.instance(context);
        StringBuilder out = new StringBuilder();
        for (String file : args) {
            String text = Files.readString(Path.of(file), StandardCharsets.UTF_8);
            log.useSource(new SimpleJavaFileObject(Path.of(file).toUri(), SimpleJavaFileObject.Kind.SOURCE) {
                @Override
                public CharSequence getCharContent(boolean ignoreEncodingErrors) {
                    return text;
                }
            });
            out.append("= ").append(file).append('\n');
            Scanner scanner = factory.newScanner(text, false);
            int line = 1, at = 0;
            for (scanner.nextToken(); scanner.token().kind != TokenKind.EOF; scanner.nextToken()) {
                Token token = scanner.token();
                for (; at < token.pos; at++) {
                    char c = text.charAt(at);
                    if (c == '\n' || c == '\r' && (at + 1 == text.length() || text.charAt(at + 1) != '\n')) {
                        line++;
                    }
                }
                out.append(line).append('\t');
                if (token.kind == TokenKind.ERROR) {
                    out.append("!error\n");
                    continue;
                }
                for (char c : text.substring(token.pos, token.endPos).toCharArray()) {
                    switch (c) {
                        case '\\' -> out.append("\\\\");
                        case '\t' -> out.append("\\t");
                        case '\r' -> out.append("\\r");
                        case '\n' -> out.append("\\n");
                        default -> out.append(c);
                    }
                }
                out.append('\n');
            }
        }
        System.out.write(out.toString().getBytes(StandardCharsets.UTF_8));
        System.out.flush();
    }
}
